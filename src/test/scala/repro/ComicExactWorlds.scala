package repro

import repro.comic.Gap
import repro.graph.SocialGraph

/** Exact RR-SIM+ and RR-CIM sample distributions of a small graph, with the
  * complement's seeds fixed, by enumerating every live-arc world
  * ([[ExactWorlds.Arcs]]: each reverse arc its own coin) and every node's
  * threshold class for each item.
  *
  * A node's threshold for an item is uniform on [0, 1), independent of
  * every other node, item and arc, and a sampler only compares it with that
  * item's GAP probabilities (`qA0`, `qAB` for A; `qB0`, `qBA` for B). So
  * all it reads is the interval between consecutive cut points of
  * {0, the item's two GAP probabilities, 1} that the threshold falls in: its
  * class, of probability the interval's length. A threshold in `[lo, hi)`
  * lies below a cut point `q` iff `lo < q`.
  *
  * The model is the substitute Com-IC of DESIGN.md §5.3, in plain set terms:
  * an item spreads from its seeds over live arcs, a node adopts it iff its
  * threshold lies below its adoption probability, and only adopters pass it
  * on. An RR set of root `r` is empty unless `r` passes the sampler's
  * predicate, and then holds `r` and every node that reaches `r` over live
  * arcs through nodes that pass it; the root is uniform.
  */
object ComicExactWorlds {

  /** RR-SIM+'s sampler for A given B's `seedsB`: B spreads from its seeds,
    * a seed adopting B iff its B threshold lies below `qBA` and any other
    * node iff below `qB0`; a node passes iff its A threshold lies below
    * `qAB` if it adopted B, else below `qA0`.
    */
  def rrSim(g: SocialGraph, seedsB: Array[Int], gap: Gap): ExactRR = {
    val seeds = mask(seedsB)
    exact(g) { (arcs, world, add) =>
      for ((passB, pB) <- passing(g.n, gap.qB0, gap.qBA)(v => if (has(seeds, v)) gap.qBA else gap.qB0)) {
        val adoptersB = arcs.spread(world, seeds, passB)
        for ((passA, pA) <- passing(g.n, gap.qA0, gap.qAB)(v => if (has(adoptersB, v)) gap.qAB else gap.qA0))
          add(passA, passA, pB * pA)
      }
    }
  }

  /** RR-CIM's sampler for B given A's `seedsA`: the root must adopt A in A's
    * spread from its seeds, where every node adopts iff its A threshold lies
    * below `qAB`; a node passes iff its B threshold lies below `qBA`.
    */
  def rrCim(g: SocialGraph, seedsA: Array[Int], gap: Gap): ExactRR = {
    val seeds = mask(seedsA)
    exact(g) { (arcs, world, add) =>
      for ((passA, pA) <- passing(g.n, gap.qA0, gap.qAB)(_ => gap.qAB)) {
        val adoptersA = arcs.spread(world, seeds, passA)
        for ((passB, pB) <- passing(g.n, gap.qB0, gap.qBA)(_ => gap.qBA))
          add(adoptersA, passB, pA * pB)
      }
    }
  }

  /** The distribution of RR sets built from `outcomes(arcs, world, add)`,
    * which, in one world, calls `add(roots, through, pr)` for each outcome
    * of the thresholds, of probability `pr`: a root in `roots & through`
    * has as its RR set the nodes that reach it through `through`; any other
    * root has an empty one.
    */
  private def exact(g: SocialGraph)(outcomes: (ExactWorlds.Arcs, Int, (Int, Int, Double) => Unit) => Unit): ExactRR = {
    val arcs = new ExactWorlds.Arcs(g)
    val d = new Array[Double](1 << g.n)
    arcs.worlds { (world, pWorld) =>
      outcomes(arcs, world, (roots, through, pr) =>
        for (r <- 0 until g.n) {
          val rr = if (has(roots & through, r)) arcs.reach(world, r, through) else 0
          d(rr) += pWorld * pr / g.n
        })
    }
    new ExactRR(g.n, d)
  }

  /** The distribution of the set of nodes whose threshold lies below `q(v)`,
    * over every vector of the `n` nodes' threshold classes between the cut
    * points `cuts`: (node bitmask, probability) for each set of positive
    * probability. Every `q(v)` must be one of `cuts`.
    */
  private def passing(n: Int, cuts: Double*)(q: Int => Double): Seq[(Int, Double)] = {
    val bounds = (0.0 +: cuts :+ 1.0).distinct.sorted
    val classes = bounds.zip(bounds.tail).map { case (lo, hi) => (lo, hi - lo) }
    val d = new Array[Double](1 << n)
    def assign(v: Int, set: Int, pr: Double): Unit =
      if (v == n) d(set) += pr
      else for ((lo, len) <- classes) assign(v + 1, if (lo < q(v)) set | 1 << v else set, pr * len)
    assign(0, 0, 1.0)
    d.indices.filter(d(_) > 0).map(s => (s, d(s)))
  }

  private def mask(nodes: Array[Int]): Int = nodes.foldLeft(0)((s, v) => s | 1 << v)

  private def has(set: Int, v: Int): Boolean = (set >> v & 1) == 1
}
