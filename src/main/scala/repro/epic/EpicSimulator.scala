package repro.epic

import java.util.SplittableRandom

import repro.graph.SocialGraph
import repro.items.Adoption

/** Deterministic EPIC diffusion in one possible world (Fig. 2 / §4.1).
  *
  * A possible world `W = (W^E, W^N)` fixes the edge coin flips and the
  * noise terms; `util` is the utility table of the noise world. Edge coins
  * are flipped lazily from a live RNG, at most once per edge (the model's
  * "tested once, status remembered").
  *
  * The propagation loop is push-on-change: a node whose adoption set grew
  * at step `t-1` pushes its adoption mask along its (live) out-edges at
  * step `t`; receivers union desires and re-run the adoption rule.
  */
object EpicSimulator {

  /** Per-thread working memory of one diffusion, `n` entries each (grown
    * when a larger graph comes): a touched flag per node (all false between
    * calls), the frontier and the touched list.
    */
  private final class Scratch {
    var inTouched = new Array[Boolean](0)
    var front = new Array[Int](0)
    var touched = new Array[Int](0)
    var busy = false
  }
  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Diffuse with a live RNG deciding edge coins (fresh edge world). */
  def diffuse(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
              rng: SplittableRandom): Array[Int] =
    run(g, alloc, util, (e, _) => rng.nextDouble() < g.fwdP(e))

  /** Diffuse with `testEdge(e, src)` deciding each edge's coin; returns
    * every node's adoption mask.
    *
    * At t = 1 each seed (in `alloc`'s iteration order) desires its
    * allocation and runs the adoption rule; the seeds whose adoption grew
    * form the frontier. Each later round, every frontier node `u` (in
    * frontier order) pushes its adoption along each out-edge `e` (in CSR
    * order): the edge's coin is `testEdge(e, u)` the first time it is asked
    * and is remembered for the world, and a live edge whose head `v` lacks
    * part of `u`'s adoption in its desire set adds it and touches `v`. Then
    * each touched node (once, in first-touch order) re-runs the rule, and
    * the nodes whose adoption grew form the next frontier.
    *
    * The frontier, the touched list and the touched flags live in
    * per-thread scratch arrays, and the flags are cleared even when
    * `testEdge` throws, so concurrent calls on different threads are
    * independent. `testEdge` must not start a diffusion: a nested call on
    * the same thread throws.
    */
  private[epic] def run(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
                        testEdge: (Int, Int) => Boolean): Array[Int] = {
    val s = scratch.get
    require(!s.busy, "EpicSimulator.run re-entered from its edge test")
    if (s.inTouched.length < g.n) {
      s.inTouched = new Array[Boolean](g.n); s.front = new Array[Int](g.n); s.touched = new Array[Int](g.n)
    }
    val inTouched = s.inTouched
    val front = s.front
    val touched = s.touched
    val desire = new Array[Int](g.n)
    val adoption = new Array[Int](g.n)
    val coin = new Array[Byte](g.fwdDst.length) // 0 untested, 1 live, 2 blocked
    val adopt = Adoption.inWorld(util)
    // A node re-runs the adoption rule on its desire set; true iff it grew.
    def settle(v: Int): Boolean = {
      val a = adopt(desire(v), adoption(v))
      a != adoption(v) && { adoption(v) = a; true }
    }
    var size = 0
    var nTouched = 0
    s.busy = true
    try {
      // t = 1: seeds desire their allocation and settle.
      val seeds = alloc.iterator
      while (seeds.hasNext) {
        val (v, mask) = seeds.next()
        if (mask != 0) {
          desire(v) |= mask
          if (settle(v)) { front(size) = v; size += 1 }
        }
      }
      while (size > 0) {
        var i = 0
        while (i < size) {
          val u = front(i)
          val aU = adoption(u)
          var e = g.fwdOff(u)
          val end = g.fwdOff(u + 1)
          while (e < end) {
            if (coin(e) == 0) coin(e) = if (testEdge(e, u)) 1 else 2
            if (coin(e) == 1) {
              val v = g.fwdDst(e)
              if ((aU & ~desire(v)) != 0) {
                desire(v) |= aU
                if (!inTouched(v)) { inTouched(v) = true; touched(nTouched) = v; nTouched += 1 }
              }
            }
            e += 1
          }
          i += 1
        }
        // The frontier has been read: the next one (a subset of the touched nodes) overwrites it.
        size = 0
        i = 0
        while (i < nTouched) {
          val v = touched(i)
          inTouched(v) = false
          if (settle(v)) { front(size) = v; size += 1 }
          i += 1
        }
        nTouched = 0
      }
    } finally {
      var i = 0
      while (i < nTouched) { inTouched(touched(i)) = false; i += 1 }
      s.busy = false
    }
    adoption
  }

  /** Social welfare of a finished world: sum of adopters' utilities. */
  def welfare(util: Array[Double], adoption: Array[Int]): Double = {
    var s = 0.0; var v = 0
    while (v < adoption.length) { s += util(adoption(v)); v += 1 }
    s
  }

  /** Adoption count `alpha_W` — total items adopted across nodes. */
  def adoptionCount(adoption: Array[Int]): Long = {
    var s = 0L; var v = 0
    while (v < adoption.length) { s += Integer.bitCount(adoption(v)); v += 1 }
    s
  }
}
