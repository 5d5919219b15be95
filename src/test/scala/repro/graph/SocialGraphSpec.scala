package repro.graph

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{ExactWorlds, Golden, TestInputs}
import repro.TestInputs.{inDeg, outDeg}
import repro.core.Configs
import repro.epic.EpicSimulator
import repro.im.RRSets

class SocialGraphSpec extends AnyFunSuite {

  // v0 -> v1, v0 -> v2, v1 -> v2, v2 -> v3
  private val edges = Array((0, 1), (0, 2), (1, 2), (2, 3))
  private val g = TestInputs.fromEdges("toy", 4, edges)

  test("CSR degrees") {
    assert(outDeg(g, 0) == 2 && outDeg(g, 1) == 1 && outDeg(g, 2) == 1 && outDeg(g, 3) == 0)
    assert(inDeg(g, 0) == 0 && inDeg(g, 1) == 1 && inDeg(g, 2) == 2 && inDeg(g, 3) == 1)
    assert(g.m == 4)
  }

  test("forward and reverse CSR hold the same edges") {
    val fwd = (0 until g.n).flatMap(u => (g.fwdOff(u) until g.fwdOff(u + 1)).map(e => (u, g.fwdDst(e))))
    val rev = (0 until g.n).flatMap(v => (g.revOff(v) until g.revOff(v + 1)).map(e => (g.revSrc(e), v)))
    assert(fwd.sorted == rev.sorted)
    assert(fwd.sorted == edges.toSeq.sorted)
  }

  test("weighted cascade: p(u,v) = 1/indeg(v)") {
    for (u <- 0 until g.n; e <- g.fwdOff(u) until g.fwdOff(u + 1)) {
      val v = g.fwdDst(e)
      assert(g.fwdP(e) == 1.0 / inDeg(g, v))
    }
    for (v <- 0 until g.n; e <- g.revOff(v) until g.revOff(v + 1)) {
      assert(g.revP(e, v) == 1.0 / inDeg(g, v))
    }
    assert(g.fwdProb.isEmpty && g.revProb.isEmpty && g.wcProb.length == g.n)
  }

  test("explicit probabilities are preserved") {
    val g2 = TestInputs.fromEdgesWithProb("p", 3, Array((0, 1, 0.25), (1, 2, 0.75)))
    assert(g2.fwdProb.toSeq.sorted == Seq(0.25, 0.75))
    assert(g2.revProb.toSeq.sorted == Seq(0.25, 0.75))
    assert(g2.wcProb.isEmpty)
    assert(Seq(g2.fwdP(0), g2.fwdP(1)) == Seq(0.25, 0.75))
    assert(Seq(g2.revP(0, 1), g2.revP(1, 2)) == Seq(0.25, 0.75))
  }

  test("explicit probabilities outside [0, 1] or NaN rejected") {
    for (p <- Seq(1.5, -0.1, Double.NaN))
      intercept[IllegalArgumentException](TestInputs.fromEdgesWithProb("x", 2, Array((0, 1, 1.0), (1, 0, p))))
    assert(TestInputs.fromEdgesWithProb("x", 2, Array((0, 1, 0.0), (1, 0, 1.0))).m == 2)
  }

  test("weighted cascade per node and the same 1/indeg per arc draw identical samples") {
    val gens = Seq(GraphGen.powerLawDirected("wc-d", 1500, 12000, seed = 8),
      GraphGen.powerLawUndirected("wc-u", 1200, 5000, seed = 9))
    for (gen <- gens) {
      val src = Array.tabulate(gen.n)(u => Array.fill(outDeg(gen, u))(u)).flatten
      val dst = gen.fwdDst
      val wc = SocialGraph.fromArcs(gen.name, gen.n, src, dst, None, gen.undirected)
      val ex = SocialGraph.fromArcs(gen.name, gen.n, src, dst, Some(dst.map(v => 1.0 / inDeg(gen, v))), gen.undirected)
      assert(wc.fwdProb.isEmpty && ex.fwdProb.length == dst.length)

      // The RR samplers skip to live arcs under weighted cascade and flip a
      // coin per arc otherwise, so their sets are checked against exact
      // worlds instead (below, and ComicExactSpec).
      val hubs = Golden.hubs(gen, 10)
      val alloc = hubs.zipWithIndex.map { case (v, i) => v -> (1 + i % 3) }.toMap
      def worlds(h: SocialGraph): Seq[Seq[Int]] = (0 until 40).map { i =>
        val rng = new SplittableRandom(RRSets.mix(37, i.toLong))
        EpicSimulator.diffuse(h, alloc, Configs.config1.model.sampleUtilityTable(rng), rng).toSeq
      }
      val adoptions = worlds(wc)
      assert(adoptions == worlds(ex))
      assert(adoptions.exists(_.count(_ != 0) > hubs.length), gen.name)
    }
  }

  test("weighted cascade per node and the same 1/indeg per arc: IC RR sets match the exact worlds") {
    // The IC sampler skips to live arcs under weighted cascade and flips a
    // coin per arc otherwise, so the two draw different sets from one seed.
    val arcs = Array((0, 1), (1, 2), (3, 2), (2, 3), (4, 3), (0, 3), (0, 4), (1, 4), (1, 4), (3, 4), (2, 0))
    val (src, dst) = (arcs.map(_._1), arcs.map(_._2))
    val wc = SocialGraph.fromArcs("exact-wc", 5, src, dst, None, undirected = false)
    val ex = SocialGraph.fromArcs("exact-wc", 5, src, dst, Some(dst.map(v => 1.0 / inDeg(wc, v))), undirected = false)
    for (h <- Seq(wc, ex)) {
      val bad = new ExactWorlds(h).mismatches(200000, seed = 71)
      assert(bad.isEmpty, bad.mkString("; "))
    }
  }

  test("out-of-range edges rejected") {
    intercept[IllegalArgumentException](TestInputs.fromEdges("bad", 2, Array((0, 5))))
  }

  test("avgDegree: directed = m/n; undirected counts each pair once") {
    assert(math.abs(g.avgDegree - 1.0) < 1e-12)
    val ug = TestInputs.fromEdges("u", 2, Array((0, 1), (1, 0)), undirected = true)
    assert(math.abs(ug.avgDegree - 1.0) < 1e-12)
  }
}
