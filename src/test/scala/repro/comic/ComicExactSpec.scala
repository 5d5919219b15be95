package repro.comic

import org.scalatest.funsuite.AnyFunSuite

import repro.{ComicExactWorlds, ExactRR, TestInputs}
import repro.graph.SocialGraph

/** `RRSimSampler`'s and `RRCimSampler`'s samples against their exact
  * distributions over every live-arc world and threshold class of small
  * graphs (`ComicExactWorlds`): per node, per pair of nodes, per seed set
  * of one or two nodes and for a non-empty set, over 200,000 draws on fixed
  * seeds, within `5·sqrt(P(1−P)/N) + 1/N`. This gates any change to how the
  * Com-IC samplers draw.
  */
class ComicExactSpec extends AnyFunSuite {

  private val draws = 200000

  /** Both samplers of `g` with the complement seeded at `seeds`, each against its exact distribution. */
  private def check(g: SocialGraph, seeds: Array[Int], gap: Gap, seed: Long): Unit = {
    val sim = ComicExactWorlds.rrSim(g, seeds, gap).mismatches(new ComicBaselines.RRSimSampler(g, seeds, gap), draws, seed)
    val cim = ComicExactWorlds.rrCim(g, seeds, gap).mismatches(new ComicBaselines.RRCimSampler(g, seeds, gap), draws, seed + 1)
    val bad = sim.map("RR-SIM+ " + _) ++ cim.map("RR-CIM " + _)
    assert(bad.isEmpty, bad.mkString("; "))
  }

  test("ComicExactWorlds on a two-node graph") {
    // Arc 0 -> 1 at p = 0.5; the complement seeded at node 0.
    val g = TestInputs.fromEdgesWithProb("x", 2, Array((0, 1, 0.5)))
    val gap = Gap(qA0 = 0.2, qAB = 0.6, qB0 = 0.3, qBA = 0.9)
    def exact(x: ExactRR, member0: Double, member1: Double, pair: Double, nonEmpty: Double): Unit = {
      assert(math.abs(x.member(0) - member0) < 1e-12 && math.abs(x.member(1) - member1) < 1e-12)
      assert(math.abs(x.pair(0, 1) - pair) < 1e-12 && math.abs(x.nonEmpty - nonEmpty) < 1e-12)
    }
    // RR-SIM+: node 0 adopts B w.p. qBA = 0.9 and node 1 w.p. 0.9 * 0.5 *
    // qB0 = 0.135, so A passes at node 0 w.p. 0.9 * 0.6 + 0.1 * 0.2 = 0.56
    // and at node 1 w.p. 0.135 * 0.6 + 0.865 * 0.2 = 0.254. Root 0's set is
    // {0} iff node 0 passes; root 1's is empty unless node 1 passes, and
    // holds node 0 too iff the arc is live and node 0 passes: with the arc,
    // both pass w.p. 0.27 * 0.6 * 0.6 + 0.63 * 0.6 * 0.2 + 0.1 * 0.2 * 0.2
    // (both adopt B, only node 0 does, neither does).
    val both = 0.5 * (0.27 * 0.36 + 0.63 * 0.12 + 0.1 * 0.04)
    exact(ComicExactWorlds.rrSim(g, Array(0), gap), (0.56 + both) / 2, 0.254 / 2, both / 2, (0.56 + 0.254) / 2)
    // RR-CIM: root 0 adopts A w.p. qAB = 0.6, root 1 w.p. 0.5 * 0.6 * 0.6 =
    // 0.18; each must pass B (qBA = 0.9), and node 0 joins root 1's set over
    // the arc (live, since A crossed it) iff it passes B too.
    exact(ComicExactWorlds.rrCim(g, Array(0), gap), (0.6 * 0.9 + 0.18 * 0.81) / 2, 0.18 * 0.9 / 2,
      0.18 * 0.81 / 2, (0.6 * 0.9 + 0.18 * 0.9) / 2)
  }

  // In-degrees 0 to 4 (node 1 at p = 1), cycles 2 -> 3 -> 2 and 3 -> 4 -> 3;
  // a complementary GAP whose four probabilities differ.
  private val wcArcs = Array((0, 1), (1, 2), (3, 2), (0, 3), (2, 3), (4, 3), (0, 4), (1, 4), (2, 4), (3, 4))
  private val complements = Gap(qA0 = 0.3, qAB = 0.8, qB0 = 0.5, qBA = 0.9)

  test("RR-SIM+ and RR-CIM samples match the exact worlds under weighted cascade") {
    val g = TestInputs.fromEdges("comic-exact-wc", 5, wcArcs)
    assert(g.wcProb.toSeq == Seq(Double.PositiveInfinity, 1.0, 1.0 / 2, 1.0 / 3, 1.0 / 4))
    check(g, Array(0, 3), complements, seed = 71)
  }

  test("weighted cascade per node and the same 1/indeg per arc sample the same distribution") {
    // Skips under weighted cascade, a hashed coin per arc otherwise: the
    // two draw different sets from one seed, from one distribution.
    val wc = TestInputs.fromEdges("comic-exact-wc", 5, wcArcs)
    val ex = TestInputs.fromEdgesWithProb("comic-exact-wc", 5, wcArcs.map { case (u, v) => (u, v, wc.wcProb(v)) })
    check(ex, Array(0, 3), complements, seed = 71)
  }

  test("RR-SIM+ and RR-CIM samples match the exact worlds under explicit probabilities") {
    // Arcs with p = 0 and p = 1, cycles 2 -> 3 -> 2, 3 -> 4 -> 3 and
    // 0 -> 1 -> 4 -> 0, no arc twice; a substitute GAP (qAB < qA0, qBA < qB0).
    val g = TestInputs.fromEdgesWithProb("comic-exact-p", 5, Array(
      (0, 1, 1.0), (1, 2, 0.6), (3, 2, 0.3), (0, 3, 0.5), (2, 3, 0.8), (4, 3, 0.0),
      (1, 4, 0.7), (2, 4, 0.4), (3, 4, 1.0), (4, 0, 0.5)))
    check(g, Array(1, 3), Gap(qA0 = 0.7, qAB = 0.35, qB0 = 0.6, qBA = 0.45), seed = 73)
  }

  test("a duplicate arc is two coins under weighted cascade") {
    // Arc 1 -> 4 twice, so node 4's in-degree 4 holds three tails, and arc
    // 1 -> 4 is live w.p. 1 - (3/4)^2 = 7/16.
    val g = TestInputs.fromEdges("comic-exact-dup", 5, Array(
      (0, 1), (1, 2), (3, 2), (0, 3), (2, 3), (4, 3), (1, 4), (1, 4), (2, 4), (3, 4)))
    check(g, Array(0, 3), complements, seed = 79)
  }
}
