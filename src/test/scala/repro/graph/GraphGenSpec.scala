package repro.graph

import java.util.SplittableRandom

import scala.jdk.CollectionConverters._

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

  test("the guided endpoint draw returns the plain binary search's index") {
    for (n <- Seq(1, 2, 13, 12900, 50000)) {
      val ends = new GraphGen.Endpoints(n)
      def check(x: Double): Unit = {
        val want = GraphGen.search(ends.cum, x, 0, n - 1)
        val got = ends.lowerBound(x)
        if (got != want) fail(s"n=$n x=$x: guided $got, binary search $want")
      }
      (0 to n).foreach(b => check(ends.bound(b)))
      ends.cum.foreach { c => check(c); check(Math.nextUp(c)); check(Math.nextDown(c)) }
      check(0.0)
      check(Math.nextDown(ends.total))
      val rng = new SplittableRandom(n)
      (0 until 1000000).foreach(_ => check(rng.nextDouble() * ends.total))
    }
  }

  /** The draw threads of builds named `name` still alive. */
  private def drawThreads(name: String): Set[String] =
    Thread.getAllStackTraces.keySet.asScala.map(_.getName).filter(_.endsWith(s"($name)")).toSet

  test("a draw that throws reaches the caller, and no draw thread outlives a build") {
    val boom = new IllegalStateException("boom")
    var draws = 0
    val thrown = intercept[IllegalStateException] {
      GraphGen.distinctArcs("throws", 1000, 5000, 250000L, undirected = false)(
        { draws += 1; if (draws > 3000) throw boom; draws % 1000 }, draws * 7 % 1000)
    }
    assert(thrown eq boom)
    assert(drawThreads("throws").isEmpty)
    // A draw that throws after the last attempt the build reads does not
    // reach it: the graph is the one drawn without it.
    val rng = new SplittableRandom(2)
    draws = 0
    val late = GraphGen.distinctArcs("late", 100, 400, 20000L, undirected = false)(
      { draws += 1; if (draws > 5000) throw boom; rng.nextInt(100) }, rng.nextInt(100))
    val plain = TestInputs.uniformDirected("plain", 100, 400, seed = 2)
    assert(late.fwdOff.toSeq == plain.fwdOff.toSeq && late.fwdDst.toSeq == plain.fwdDst.toSeq)
    assert(drawThreads("late").isEmpty && drawThreads("plain").isEmpty)
  }

  test("more arcs than the nodes allow, or fewer than none, are rejected") {
    def arcs(target: Int, undirected: Boolean): SocialGraph = {
      val rng = new SplittableRandom(1)
      GraphGen.distinctArcs("full", 10, target, 100000L, undirected)(rng.nextInt(10), rng.nextInt(10))
    }
    val tooMany = intercept[IllegalArgumentException](arcs(91, undirected = false))
    assert(tooMany.getMessage.contains("91 distinct arcs on n = 10 nodes"), tooMany.getMessage)
    intercept[IllegalArgumentException](arcs(46, undirected = true))
    intercept[IllegalArgumentException](arcs(-1, undirected = false))
    intercept[IllegalArgumentException](GraphGen.powerLawDirected("d", 10, 91))
    // Every possible arc or pair can be drawn.
    assert(arcs(90, undirected = false).m == 90)
    assert(arcs(45, undirected = true).m == 90)
  }
}
