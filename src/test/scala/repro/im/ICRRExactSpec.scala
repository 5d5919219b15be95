package repro.im

import org.scalatest.funsuite.AnyFunSuite

import repro.{ExactWorlds, TestInputs}

/** `ICRRSampler`'s RR sets against the exact distribution of all live-edge
  * worlds of small graphs: per node, per pair of nodes and per seed set of
  * one or two nodes, over 200,000 draws on fixed seeds, within
  * `5·sqrt(P(1−P)/N) + 1/N`. This gates any change to how the sampler draws.
  */
class ICRRExactSpec extends AnyFunSuite {

  private val draws = 200000

  test("ExactWorlds on a two-node graph") {
    val x = new ExactWorlds(TestInputs.fromEdgesWithProb("x", 2, Array((0, 1, 0.3))))
    // root 0: {0}; root 1: {1} or, with probability 0.3, {1, 0}
    assert(math.abs(x.member(0) - 0.65) < 1e-12 && math.abs(x.member(1) - 0.5) < 1e-12)
    assert(math.abs(x.pair(0, 1) - 0.15) < 1e-12)
    assert(math.abs(x.sigma(Seq(0)) - 1.3) < 1e-12 && math.abs(x.sigma(Seq(0, 1)) - 2.0) < 1e-12)
  }

  test("IC RR sets match the exact worlds under weighted cascade") {
    // In-degrees 0 (node 0), 1 (node 1, p = 1), 2, 3, 5 and 4; cycles
    // 2 -> 3 -> 2 and 4 -> 5 -> 4; arc 1 -> 5 twice.
    val g = TestInputs.fromEdges("exact-wc", 6, Array(
      (0, 1), (1, 2), (3, 2), (2, 3), (4, 3), (5, 3), (0, 4), (1, 4), (2, 4), (3, 4), (5, 4),
      (0, 5), (1, 5), (1, 5), (4, 5)))
    assert(g.wcProb.toSeq == Seq(Double.PositiveInfinity, 1.0, 1.0 / 2, 1.0 / 3, 1.0 / 5, 1.0 / 4))
    val bad = new ExactWorlds(g).mismatches(draws, seed = 61)
    assert(bad.isEmpty, bad.mkString("; "))
  }

  test("IC RR sets match the exact worlds under explicit probabilities") {
    // Arcs with p = 0 and p = 1, in-degrees 0 to 5, cycles 2 -> 3 -> 2 and
    // 3 -> 4 -> 3, and arc 2 -> 3 twice at different probabilities.
    val g = TestInputs.fromEdgesWithProb("exact-p", 6, Array(
      (0, 1, 1.0), (0, 2, 0.0), (1, 2, 0.6), (3, 2, 0.3), (2, 3, 0.5), (2, 3, 0.25), (4, 3, 0.7),
      (1, 4, 0.2), (3, 4, 0.9), (5, 4, 0.4), (0, 4, 1.0),
      (4, 5, 0.35), (2, 5, 0.0), (1, 5, 0.8), (3, 5, 0.15), (0, 5, 0.5)))
    val bad = new ExactWorlds(g).mismatches(draws, seed = 67)
    assert(bad.isEmpty, bad.mkString("; "))
  }
}
