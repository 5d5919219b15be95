package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class SocialGraphSpec extends AnyFunSuite {

  // v0 -> v1, v0 -> v2, v1 -> v2, v2 -> v3
  private val edges = Array((0, 1), (0, 2), (1, 2), (2, 3))
  private val g = SocialGraph.fromEdges("toy", 4, edges)

  test("CSR degrees") {
    assert(g.outDeg(0) == 2 && g.outDeg(1) == 1 && g.outDeg(2) == 1 && g.outDeg(3) == 0)
    assert(g.inDeg(0) == 0 && g.inDeg(1) == 1 && g.inDeg(2) == 2 && g.inDeg(3) == 1)
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
      assert(math.abs(g.fwdProb(e) - 1.0 / g.inDeg(v)) < 1e-12)
    }
    for (v <- 0 until g.n; e <- g.revOff(v) until g.revOff(v + 1)) {
      assert(math.abs(g.revProb(e) - 1.0 / g.inDeg(v)) < 1e-12)
    }
  }

  test("explicit probabilities are preserved") {
    val g2 = SocialGraph.fromEdgesWithProb("p", 3, Array((0, 1, 0.25), (1, 2, 0.75)))
    assert(g2.fwdProb.toSeq.sorted == Seq(0.25, 0.75))
    assert(g2.revProb.toSeq.sorted == Seq(0.25, 0.75))
  }

  test("out-of-range edges rejected") {
    intercept[IllegalArgumentException](SocialGraph.fromEdges("bad", 2, Array((0, 5))))
  }

  test("avgDegree: directed = m/n; undirected counts each pair once") {
    assert(math.abs(g.avgDegree - 1.0) < 1e-12)
    val ug = SocialGraph.fromEdges("u", 2, Array((0, 1), (1, 0)), undirected = true)
    assert(math.abs(ug.avgDegree - 1.0) < 1e-12)
  }
}
