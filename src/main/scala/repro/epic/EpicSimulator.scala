package repro.epic

import java.util.SplittableRandom

import repro.exec.NodeMarks
import repro.graph.SocialGraph
import repro.items.{Adoption, SetFunctions}

/** Deterministic EPIC diffusion in one possible world (Fig. 2 / §4.1).
  *
  * A possible world `W = (W^E, W^N)` fixes the edge coin flips and the
  * noise terms; `util` is the utility table of the noise world. Edge coins
  * are flipped lazily from a live RNG, once per edge (the model's "tested
  * once, status remembered"): a node flips all its out-edge coins at its
  * first push and keeps only the heads of its live edges.
  *
  * The propagation loop is push-on-change: a node whose adoption set grew
  * at step `t-1` pushes its adoption mask along its (live) out-edges at
  * step `t`; receivers union desires and re-run the adoption rule.
  */
object EpicSimulator {

  /** Per-thread working memory of one diffusion: the nodes touched this
    * round, the frontier (`n` entries) and the live-head buffer, each grown
    * as needed. Holding `touched` holds the other two.
    */
  private final class Scratch {
    val touched = new NodeMarks
    var front = new Array[Int](0)
    var heads = new Array[Int](0)
  }
  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Diffuse with a live RNG deciding edge coins (fresh edge world),
    * checking `util` for supermodularity first.
    */
  def diffuse(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
              rng: SplittableRandom): Array[Int] =
    diffuse(g, alloc, util, SetFunctions.isSupermodular(util), rng)

  /** [[diffuse]] with `supermodular` the caller's answer for `util`:
    * [[repro.items.UtilityModel.supermodular]] for a model's worlds.
    */
  def diffuse(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double], supermodular: Boolean,
              rng: SplittableRandom): Array[Int] =
    run(g, alloc, util, supermodular, (e, _) => rng.nextDouble() < g.fwdP(e))

  /** Diffuse with `testEdge(e, src)` deciding each edge's coin; returns
    * every node's adoption mask.
    *
    * At t = 1 each seed (in `alloc`'s iteration order) desires its
    * allocation and runs the adoption rule; the seeds whose adoption grew
    * form the frontier. Each later round, every frontier node `u` (in
    * frontier order) pushes its adoption along each live out-edge in CSR
    * order: a live edge whose head `v` lacks part of `u`'s adoption in its
    * desire set adds it and touches `v`. At `u`'s first push each out-edge
    * `e` (in CSR order) is asked `testEdge(e, u)` once, and a live edge's
    * head is kept; a later push of `u` walks only the kept heads. Then each
    * touched node (once, in first-touch order) re-runs the rule
    * (`Adoption.inWorld(util, supermodular)`), and the nodes whose adoption
    * grew form the next frontier.
    *
    * The kept heads of every pushed node lie in one per-thread buffer, a
    * count followed by the heads, found through a per-world offset per
    * node. Calls on different threads are independent, also after
    * `testEdge` throws; a nested call on the same thread throws.
    */
  private[epic] def run(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double], supermodular: Boolean,
                        testEdge: (Int, Int) => Boolean): Array[Int] = {
    val s = scratch.get
    var heads = s.heads
    val desire = new Array[Int](g.n)
    val adoption = new Array[Int](g.n)
    // 1 + the offset in `heads` of node u's live-head count; 0 before u's first push.
    val liveAt = new Array[Int](g.n)
    val adopt = Adoption.inWorld(util, supermodular)
    val touched = s.touched.acquire(g.n, "EpicSimulator.run re-entered from its edge test")
    // A node re-runs the adoption rule on its desire set; true iff it grew.
    def settle(v: Int): Boolean = {
      val a = adopt(desire(v), adoption(v))
      a != adoption(v) && { adoption(v) = a; true }
    }
    // Adoption `a` reaches `v` over a live edge; `v` is touched if `a` adds to its desire set.
    def offer(v: Int, a: Int): Unit =
      if ((a & ~desire(v)) != 0) { desire(v) |= a; if (!touched.has(v)) touched.add(v) }
    var size = 0
    var nHeads = 0
    try {
      // A round touches each node at most once; reserving n keeps growth out of the push loops.
      touched.reserve(g.n)
      if (s.front.length < g.n) s.front = new Array[Int](g.n)
      val front = s.front
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
          if (liveAt(u) == 0) { // first push: ask each out-edge's coin, keep the live heads
            var e = g.fwdOff(u)
            val end = g.fwdOff(u + 1)
            if (nHeads + 1 + end - e > heads.length) {
              heads = java.util.Arrays.copyOf(heads, math.max(2 * heads.length, nHeads + 1 + end - e))
              s.heads = heads
            }
            val at = nHeads
            nHeads += 1
            while (e < end) {
              if (testEdge(e, u)) {
                val v = g.fwdDst(e)
                heads(nHeads) = v; nHeads += 1
                offer(v, aU)
              }
              e += 1
            }
            heads(at) = nHeads - at - 1
            liveAt(u) = at + 1
          } else {
            var j = liveAt(u)
            val end = j + heads(j - 1)
            while (j < end) {
              offer(heads(j), aU)
              j += 1
            }
          }
          i += 1
        }
        // The frontier has been read: the next one (a subset of the touched nodes) overwrites it.
        size = 0
        i = 0
        while (i < touched.size) {
          val v = touched(i)
          if (settle(v)) { front(size) = v; size += 1 }
          i += 1
        }
        touched.clear()
      }
    } finally touched.release()
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
