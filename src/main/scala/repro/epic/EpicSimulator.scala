package repro.epic

import java.util.SplittableRandom

import repro.graph.{SocialGraph, Traversal}
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

  /** Diffuse with a live RNG deciding edge coins (fresh edge world). */
  def diffuse(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
              rng: SplittableRandom): Array[Int] =
    run(g, alloc, util, (e, _) => rng.nextDouble() < g.fwdP(e))

  /** Diffuse with `testEdge(e, src)` deciding each edge's coin. */
  private[epic] def run(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
                        testEdge: (Int, Int) => Boolean): Array[Int] = {
    val desire = new Array[Int](g.n)
    val adoption = new Array[Int](g.n)
    val coins = new Traversal.EdgeCoins(g, testEdge)
    val adopt = Adoption.inWorld(util)
    // A node re-runs the adoption rule on its desire set; true iff it grew.
    val settle: Int => Boolean = { v =>
      val a = adopt(desire(v), adoption(v))
      a != adoption(v) && { adoption(v) = a; true }
    }

    // t = 1: seeds desire their allocation and settle.
    val seeds = new Array[Int](alloc.size)
    var nSeeds = 0
    for ((v, mask) <- alloc if mask != 0) {
      desire(v) |= mask
      if (settle(v)) { seeds(nSeeds) = v; nSeeds += 1 }
    }

    Traversal.sweep(g, java.util.Arrays.copyOf(seeds, nSeeds)) { (u, e) =>
      coins.live(e, u) && {
        val v = g.fwdDst(e)
        val aU = adoption(u)
        (aU & ~desire(v)) != 0 && { desire(v) |= aU; true }
      }
    }(settle)
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
