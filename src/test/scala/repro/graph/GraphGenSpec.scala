package repro.graph

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestInputs}

class GraphGenSpec extends AnyFunSuite with SparkSpec {

  test("directed generator hits the requested node and edge counts") {
    val g = GraphGen.powerLawDirected("d", n = 2000, targetEdges = 12000, seed = 1)
    assert(g.n == 2000)
    assert(g.m == 12000)
  }

  test("generator is deterministic in the seed") {
    val a = GraphGen.powerLawDirected("a", 500, 3000, seed = 9)
    val b = GraphGen.powerLawDirected("b", 500, 3000, seed = 9)
    assert(a.fwdDst.toSeq == b.fwdDst.toSeq && a.fwdOff.toSeq == b.fwdOff.toSeq)
    val c = GraphGen.powerLawDirected("c", 500, 3000, seed = 10)
    assert(c.fwdDst.toSeq != a.fwdDst.toSeq)
  }

  test("no self loops and no duplicate edges") {
    val g = GraphGen.powerLawDirected("d", 800, 5000, seed = 3)
    val es = (0 until g.n).flatMap(u => (g.fwdOff(u) until g.fwdOff(u + 1)).map(e => (u, g.fwdDst(e))))
    assert(es.forall { case (u, v) => u != v })
    assert(es.distinct.size == es.size)
  }

  test("undirected generator stores both directions") {
    val g = GraphGen.powerLawUndirected("u", 1000, 4000, seed = 5)
    assert(g.m == 8000)
    assert(g.undirected)
    val es = (0 until g.n).flatMap(u => (g.fwdOff(u) until g.fwdOff(u + 1)).map(e => (u, g.fwdDst(e)))).toSet
    es.foreach { case (u, v) => assert(es.contains((v, u)), s"missing reverse of ($u,$v)") }
  }

  test("degree distribution is heavy-tailed (hubs exist)") {
    val g = GraphGen.powerLawDirected("d", 3000, 30000, seed = 4)
    val degs = (0 until g.n).map(TestInputs.inDeg(g, _)).sorted(Ordering[Int].reverse)
    val avg = g.m.toDouble / g.n
    assert(degs.head > 8 * avg, s"max indeg ${degs.head} vs avg $avg")
  }

  test("uniformDirected produces requested edges for tests") {
    val g = TestInputs.uniformDirected("t", 100, 400, seed = 2)
    assert(g.n == 100 && g.m == 400)
  }

  test("Table 2 stand-ins: Flixster matches paper's node/edge counts") {
    val g = GraphGen.flixsterLite()
    assert(g.n == 12900)
    assert(g.m == 192000) // 96K undirected pairs stored both ways
    assert(g.undirected)
    assert(math.abs(g.avgDegree - 14.9) < 1.0) // paper: 14.8
  }

  test("Table 2 stand-ins: Douban-Book matches paper's counts") {
    val g = GraphGen.doubanBookLite()
    assert(g.n == 23300 && g.m == 141000 && !g.undirected)
    assert(math.abs(g.avgDegree - 6.5) < 0.5)
  }
}
