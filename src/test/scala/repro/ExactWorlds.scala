package repro

import java.util.SplittableRandom

import repro.graph.SocialGraph
import repro.im.{ICRRSampler, RRSampler, RRSets}

/** An exact RR-set distribution over the nodes of a small graph, given as
  * Pr[RR = s] for every node bitmask `s`, and the check of a sampler's RR
  * sets against it.
  */
class ExactRR(n: Int, dist: Array[Double]) {
  require(dist.length == 1 << n, s"a distribution over the subsets of $n nodes has ${1 << n} entries, got ${dist.length}")

  /** Pr[RR = s] summed over the sets `s` for which `holds(s)`. */
  private def pr(holds: Int => Boolean): Double = dist.indices.filter(holds).map(dist).sum

  /** Pr[u ∈ RR] = (1/n)·Σ_v Pr[u reaches v]. */
  def member(u: Int): Double = pr(s => (s >> u & 1) == 1)

  /** Pr[{u, w} ⊆ RR]. */
  def pair(u: Int, w: Int): Double = pr(s => (s >> u & 1) == 1 && (s >> w & 1) == 1)

  /** σ(S) = n·Pr[S ∩ RR ≠ ∅], the expected number of nodes `S` reaches. */
  def sigma(seeds: Seq[Int]): Double = n * pr(s => seeds.exists(u => (s >> u & 1) == 1))

  /** Pr[RR ≠ ∅]. */
  def nonEmpty: Double = pr(_ != 0)

  /** Every frequency among `draws` RR sets of `sampler` from sample ids
    * `0 until draws` (id `i` seeded by `RRSets.mix(seed, i)`, as
    * `SeededBatch` does) that lies outside `5·sqrt(P(1−P)/N) + 1/N` of its
    * exact value `P`: Pr[u ∈ RR] per node, Pr[{u, w} ⊆ RR] per pair of
    * nodes, σ(S)/n per `S` of one or two nodes, and Pr[RR ≠ ∅].
    */
  def mismatches(sampler: RRSampler, draws: Int, seed: Long): Seq[String] = {
    val counts = new Array[Long](1 << n)
    for (i <- 0 until draws) {
      val rr = sampler.sample(new SplittableRandom(RRSets.mix(seed, i.toLong)))
      val s = rr.foldLeft(0)((acc, u) => acc | 1 << u)
      require(Integer.bitCount(s) == rr.length, s"RR set ${rr.mkString(",")} repeats a node")
      counts(s) += 1
    }
    def freq(holds: Int => Boolean): Double = counts.indices.filter(holds).map(counts(_)).sum.toDouble / draws
    def off(what: String, exact: Double, f: Double): Option[String] = {
      // (an exact 1 may sum to a hair above it)
      val bound = 5 * math.sqrt(math.max(0.0, exact * (1 - exact)) / draws) + 1.0 / draws
      if (math.abs(f - exact) <= bound) None else Some(f"$what: frequency $f%.5f, exact $exact%.5f, bound $bound%.5f")
    }
    val nodes = 0 until n
    val pairs = for (u <- nodes; w <- nodes if u < w) yield (u, w)
    nodes.flatMap(u => off(s"Pr[$u in RR]", member(u), freq(s => (s >> u & 1) == 1))) ++
      pairs.flatMap { case (u, w) =>
        off(s"Pr[{$u,$w} in RR]", pair(u, w), freq(s => (s >> u & 1) == 1 && (s >> w & 1) == 1))
      } ++
      (nodes.map(Seq(_)) ++ pairs.map { case (u, w) => Seq(u, w) }).flatMap { seeds =>
        off(s"sigma(${seeds.mkString("{", ",", "}")})/n", sigma(seeds) / n, freq(s => seeds.exists(u => (s >> u & 1) == 1)))
      } ++
      off("Pr[RR nonempty]", nonEmpty, freq(_ != 0))
  }
}

/** Exact IC reverse-reachable (RR) set statistics of a small graph, by
  * enumerating all 2^m live-edge worlds: reverse arc `e` of node `v` is live
  * with probability `g.revP(e, v)`, independently of every other arc, so a
  * duplicate arc is two coins. The RR set of root `v` in a world is the set
  * of nodes that reach `v` over live arcs, and the root is uniform
  * (Borgs, Brautbar, Chayes and Lucier, SODA'14).
  */
final class ExactWorlds(g: SocialGraph) extends ExactRR(g.n, ExactWorlds.icDist(g)) {

  /** [[ExactRR.mismatches]] of `ICRRSampler`. */
  def mismatches(draws: Int, seed: Long): Seq[String] = mismatches(new ICRRSampler(g), draws, seed)
}

object ExactWorlds {

  /** The reverse arcs of a small graph and its live-arc worlds: world `w`
    * is a bitmask over reverse arcs, and node sets are bitmasks over nodes.
    */
  final class Arcs(g: SocialGraph) {
    private val n = g.n
    private val m = g.revSrc.length
    require(m <= 16 && n <= 16, s"ExactWorlds enumerates at most 2^16 worlds of at most 16 nodes, got m = $m, n = $n")
    private val head = Array.tabulate(m)(e => (0 until n).find(v => g.revOff(v) <= e && e < g.revOff(v + 1)).get)
    private val tail = g.revSrc
    private val p = Array.tabulate(m)(e => g.revP(e, head(e)))

    /** Calls `f(world, Pr[world])` for every world of positive probability. */
    def worlds(f: (Int, Double) => Unit): Unit =
      for (world <- 0 until (1 << m)) {
        val pr = (0 until m).map(e => if ((world >> e & 1) == 1) p(e) else 1 - p(e)).product
        if (pr > 0) f(world, pr)
      }

    /** The fixed point of adding the `through` end of a live arc whose other end is in the set. */
    private def grow(world: Int, start: Int, through: Int, forward: Boolean): Int = {
      val (from, to) = if (forward) (tail, head) else (head, tail)
      var s = start
      var grown = true
      while (grown) {
        val before = s
        for (e <- 0 until m if (world >> e & 1) == 1 && (s >> from(e) & 1) == 1 && (through >> to(e) & 1) == 1)
          s |= 1 << to(e)
        grown = s != before
      }
      s
    }

    /** `root` and the nodes of `through` that reach it over live arcs through nodes of `through`. */
    def reach(world: Int, root: Int, through: Int): Int = grow(world, 1 << root, through, forward = false)

    /** The nodes of `through` that a node of `from & through` reaches over
      * live arcs through nodes of `through`: a spread from `from` in which
      * only nodes of `through` adopt and only adopters pass it on.
      */
    def spread(world: Int, from: Int, through: Int): Int = grow(world, from & through, through, forward = true)
  }

  /** Pr[RR = s] of IC RR sets for every node bitmask `s`. */
  private def icDist(g: SocialGraph): Array[Double] = {
    val arcs = new Arcs(g)
    val d = new Array[Double](1 << g.n)
    arcs.worlds((world, pr) => for (v <- 0 until g.n) d(arcs.reach(world, v, -1)) += pr / g.n)
    d
  }
}
