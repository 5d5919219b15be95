package repro.im

import java.util.SplittableRandom

import scala.collection.mutable.ArrayBuffer

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestInputs}
import repro.graph.{GraphGen, SocialGraph}

class PRIMMSpec extends AnyFunSuite with SparkSpec {

  test("logBinom matches direct computation") {
    assert(math.abs(PRIMM.logBinom(10, 0)) < 1e-12)
    assert(math.abs(PRIMM.logBinom(10, 1) - math.log(10)) < 1e-9)
    assert(math.abs(PRIMM.logBinom(10, 3) - math.log(120)) < 1e-9)
    assert(math.abs(PRIMM.logBinom(52, 5) - math.log(2598960.0)) < 1e-6)
  }

  test("budgets must be sorted non-increasingly") {
    val g = TestInputs.uniformDirected("t", 20, 60, seed = 1)
    intercept[IllegalArgumentException](PRIMM.run(spark, g, Seq(1, 3)))
  }

  test("budgets below 1 are rejected with a message") {
    val g = TestInputs.uniformDirected("t", 20, 60, seed = 1)
    val e = intercept[IllegalArgumentException](PRIMM.run(spark, g, Seq(3, 0)))
    assert(e.getMessage.contains("each at least 1, got 3,0"))
  }

  test("a one-node graph is rejected") {
    // ln n = 0 makes PRIMM's sample-size bounds NaN
    val g = TestInputs.fromEdges("one", 1, Array.empty[(Int, Int)])
    intercept[IllegalArgumentException](PRIMM.run(spark, g, Seq(1)))
  }

  // --- deterministic (p = 1) graph: sigma is exact reachability --------

  /** 40-node graph, p = 1: three hubs with disjoint-ish audiences. */
  private def detGraph: SocialGraph = {
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Double)]
    // hub 0 -> 1..12, hub 13 -> 14..22, hub 23 -> 24..29; chain 30..39
    (1 to 12).foreach(v => edges += ((0, v, 1.0)))
    (14 to 22).foreach(v => edges += ((13, v, 1.0)))
    (24 to 29).foreach(v => edges += ((23, v, 1.0)))
    (30 until 39).foreach(v => edges += ((v, v + 1, 1.0)))
    TestInputs.fromEdgesWithProb("det", 40, edges.toArray)
  }

  private def reachSets(g: SocialGraph): Array[Set[Int]] =
    Array.tabulate(g.n) { v =>
      val seen = scala.collection.mutable.Set(v)
      val stack = scala.collection.mutable.Stack(v)
      while (stack.nonEmpty) {
        val u = stack.pop()
        (g.fwdOff(u) until g.fwdOff(u + 1)).map(g.fwdDst).foreach { w =>
          if (!seen.contains(w)) { seen += w; stack.push(w) }
        }
      }
      seen.toSet
    }

  private def sigma(reach: Array[Set[Int]], seeds: Seq[Int]): Int =
    seeds.foldLeft(Set.empty[Int])(_ ++ reach(_)).size

  private def bruteOpt(reach: Array[Set[Int]], n: Int, k: Int): Int =
    (0 until n).combinations(k).map(c => sigma(reach, c)).max

  test("IMM finds the optimal seed on a deterministic graph (k=1)") {
    val g = detGraph
    val reach = reachSets(g)
    val res = PRIMM.imm(spark, g, 1, eps = 0.3, seed = 2)
    assert(sigma(reach, res.seeds.take(1).toSeq) == bruteOpt(reach, g.n, 1))
    assert(res.seeds.head == 0) // hub 0 reaches 13 nodes
  }

  test("IMM top-3 on the deterministic graph picks the three hubs") {
    val g = detGraph
    val reach = reachSets(g)
    val res = PRIMM.imm(spark, g, 3, eps = 0.3, seed = 2)
    val opt = bruteOpt(reach, g.n, 3)
    assert(sigma(reach, res.seeds.take(3).toSeq) >= math.ceil((1 - 1.0 / math.E - 0.3) * opt))
    // hub 0 reaches 13 nodes, hub 13 and chain head 30 reach 10 each —
    // together they dominate hub 23's 7.
    assert(res.seeds.take(3).toSet == Set(0, 13, 30))
  }

  test("PRIMM prefix property: every budget prefix is near-optimal (deterministic graph)") {
    val g = detGraph
    val reach = reachSets(g)
    val budgets = Seq(5, 3, 1)
    val res = PRIMM.run(spark, g, budgets, eps = 0.3, seed = 4)
    assert(res.seeds.length == 5)
    for (k <- budgets) {
      val opt = bruteOpt(reach, g.n, k)
      val got = sigma(reach, res.seeds.take(k).toSeq)
      assert(got >= (1 - 1.0 / math.E - 0.3) * opt,
        s"k=$k: got $got, opt $opt")
    }
  }

  test("PRIMM ordering is greedy-consistent: earlier prefixes are subsets of later ones") {
    val g = detGraph
    val res = PRIMM.run(spark, g, Seq(4, 2), eps = 0.3, seed = 5)
    // trivially true for an ordered list; check seeds are distinct
    assert(res.seeds.distinct.length == res.seeds.length)
  }

  test("sigmaHat estimates are non-decreasing and bounded by n") {
    val g = detGraph
    val res = PRIMM.imm(spark, g, 5, eps = 0.3, seed = 6)
    assert(res.sigmaHat.zip(res.sigmaHat.tail).forall { case (a, b) => b >= a - 1e-9 })
    assert(res.sigmaHat.forall(s => s >= 0 && s <= g.n))
  }

  test("sigmaHat approximates true sigma on the deterministic graph") {
    val g = detGraph
    val reach = reachSets(g)
    val res = PRIMM.imm(spark, g, 3, eps = 0.25, seed = 7)
    val est = res.sigmaHat(2)
    val act = sigma(reach, res.seeds.take(3).toSeq)
    assert(math.abs(est - act) < 0.25 * act, s"est=$est act=$act")
  }

  /** Mean IC spread of `seeds` over `runs` forward simulations drawn from `SplittableRandom(rngSeed)`. */
  private def mcSpread(g: SocialGraph, seeds: Array[Int], runs: Int, rngSeed: Long): Double = {
    val rng = new java.util.SplittableRandom(rngSeed)
    var total = 0L
    (0 until runs).foreach { _ =>
      val seen = scala.collection.mutable.Set(seeds.toSeq: _*)
      val stack = scala.collection.mutable.Stack(seeds.toSeq: _*)
      while (stack.nonEmpty) {
        val u = stack.pop()
        var e = g.fwdOff(u)
        while (e < g.fwdOff(u + 1)) {
          val v = g.fwdDst(e)
          if (!seen.contains(v) && rng.nextDouble() < g.fwdP(e)) { seen += v; stack.push(v) }
          e += 1
        }
      }
      total += seen.size
    }
    total.toDouble / runs
  }

  test("IMM on a probabilistic graph beats random seeds") {
    val g = GraphGen.powerLawDirected("p", 400, 3000, seed = 11)
    val res = PRIMM.imm(spark, g, 5, eps = 0.5, seed = 12)
    // MC spread of chosen seeds vs 5 random nodes
    val immSpread = mcSpread(g, res.seeds, 300, rngSeed = 77)
    val rndSpread = mcSpread(g, Array(7, 77, 177, 277, 377), 300, rngSeed = 77)
    assert(immSpread > rndSpread, s"imm=$immSpread rnd=$rndSpread")
  }

  test("PRIMM prefixes match dedicated IMM runs on a probabilistic graph") {
    val g = GraphGen.powerLawDirected("p", 400, 3000, seed = 13)
    val budgets = Seq(8, 4, 2)
    val primm = PRIMM.run(spark, g, budgets, eps = 0.5, seed = 14)
    for (k <- budgets) {
      val prefixSpread = mcSpread(g, primm.seeds.take(k), 400, rngSeed = 88)
      val directSpread = mcSpread(g, PRIMM.imm(spark, g, k, eps = 0.5, seed = 15).seeds, 400, rngSeed = 88)
      assert(prefixSpread >= 0.8 * directSpread,
        s"k=$k: prefix spread $prefixSpread vs direct IMM $directSpread")
    }
  }

  test("forbidden nodes never appear in IMM output") {
    val g = detGraph
    val res = PRIMM.imm(spark, g, 3, eps = 0.3, seed = 8, forbidden = Set(0, 13))
    assert(!res.seeds.contains(0) && !res.seeds.contains(13))
    assert(res.seeds.contains(23))
  }

  test("maxRR caps the RR collection size") {
    val g = detGraph
    val res = PRIMM.imm(spark, g, 2, eps = 0.3, seed = 9, maxRR = 100)
    assert(res.rrCount <= 100)
    for (cap <- Seq(0, -5))
      intercept[IllegalArgumentException](PRIMM.imm(spark, g, 2, eps = 0.3, seed = 9, maxRR = cap))
  }

  test("duplicate budgets are accepted and still return the max-budget prefix") {
    val g = detGraph
    val reach = reachSets(g)
    val r1 = PRIMM.run(spark, g, Seq(3, 3, 1), eps = 0.3, seed = 10)
    assert(r1.seeds.length == 3)
    val opt = bruteOpt(reach, g.n, 3)
    assert(sigma(reach, r1.seeds.take(3).toSeq) >= (1 - 1.0 / math.E - 0.3) * opt)
  }

  test("forbidden nodes must leave at least the largest budget selectable") {
    val g = detGraph
    // 38 of 40 nodes forbidden: two seeds cannot fill a budget of 3
    intercept[IllegalArgumentException](PRIMM.imm(spark, g, 3, eps = 0.3, seed = 8, forbidden = (0 until 38).toSet))
    // ids outside [0, n) do not count against the selectable nodes
    val res = PRIMM.imm(spark, g, 3, eps = 0.3, seed = 8, forbidden = (0 until 37).toSet ++ Set(-1, 40, 100))
    assert(res.seeds.sorted.toSeq == Seq(37, 38, 39))
  }

  test("the last selection's prefix coverage follows the collection's growth and each re-selection") {
    val g = GraphGen.powerLawDirected("p", 400, 3000, seed = 11)
    val sampler = new ICRRSampler(g)
    def draw(i: Int): Array[Int] = sampler.sample(new SplittableRandom(RRSets.mix(3, i.toLong)))
    val rr = ArrayBuffer.empty[Array[Int]]
    val store = new RRStore(g.n, 2)
    def grow(ids: Range): Unit = { val sets = ids.map(draw).toArray; rr ++= sets; store.append(sets) }
    grow(0 until 100)
    val selections = new PRIMM.Selections(store, 8, Set.empty)
    def countsAllOf(sel: MaxCover.CoverResult): Unit = {
      val want = MaxCover.prefixCoverage(rr, sel.seeds, g.n)
      (1 to 8).foreach(k => assert(selections.covered(k) == want(k - 1), s"k=$k"))
    }

    val first = selections.select()
    countsAllOf(first)
    grow(100 until 2000)
    countsAllOf(first)
    // A re-selection on the grown collection replaces the selection
    // whose coverage was just re-counted at this size.
    val second = selections.select()
    assert(!second.seeds.sameElements(first.seeds))
    assert((1 to 8).forall(k => second.covered(k) == selections.covered(k)))
    countsAllOf(second)
    grow(2000 until 3000)
    countsAllOf(second)
    // Selections are made anew only on a grown collection.
    val third = selections.select()
    countsAllOf(third)
    assert(selections.select() eq third)
  }

  test("seeds, rrCount, sigmaHat and the rounds' RR counts do not depend on the pack parallelism") {
    val g = GraphGen.powerLawDirected("wc", 3000, 24000, seed = 17)
    def run(packParallelism: Int): PRIMM.Result =
      PRIMM.run(spark, g, Seq(100, 50, 10), 0.3, 1.0, 19, None, Set.empty, Int.MaxValue, packParallelism)
    val (one, four) = (run(1), run(4))
    // the first round sets no bound, so its pack holds every set it drew:
    // at least two blocks' worth, which four threads pack as several blocks
    assert(one.rounds.head.lb.isEmpty && one.rounds.head.rrCount >= 2 * 4096, one.rounds.head)
    assert(four.seeds.toSeq == one.seeds.toSeq)
    assert(four.rrCount == one.rrCount)
    assert(four.sigmaHat.toSeq == one.sigmaHat.toSeq)
    assert(four.rounds.map(_.rrCount) == one.rounds.map(_.rrCount))
  }

  test("each round reports its targets, bound and RR count, and the last one the collection's final size") {
    val g = detGraph
    val res = PRIMM.run(spark, g, Seq(5, 3, 1), eps = 0.3, seed = 4)
    val rows = res.rounds
    assert(rows.nonEmpty)
    assert(rows.last.rrCount == res.rrCount)
    assert(rows.map(_.rrCount) == rows.map(_.rrCount).sorted)
    for (r <- rows) {
      assert(Seq(r.x, r.lambdaPrime, r.lambdaStar).forall(v => v > 0 && !v.isInfinite), r)
      assert(r.lb.forall(_ > 0) && Seq(r.drawMs, r.packMs, r.selectMs).forall(_ >= 0), r)
      assert(Seq(5, 3, 1).contains(r.k) && r.i >= 1, r)
    }
    // every budget but those the closing step falls back for sets its bound in a round
    assert(rows.init.count(_.lb.isDefined) + rows.last.lb.size >= 1)
  }

  test("one run draws exactly rrCount RR sets") {
    val g = GraphGen.powerLawDirected("p", 400, 3000, seed = 11)
    CountingSampler.draws.set(0)
    val res = PRIMM.run(spark, g, Seq(8, 4, 2), eps = 0.5, seed = 14, sampler = Some(new CountingSampler(new ICRRSampler(g))))
    assert(CountingSampler.draws.get == res.rrCount)
  }
}

/** Counts its draws and its serializations (one per Spark broadcast) in
  * JVM-wide counters, which every sampling thread in this JVM shares.
  */
final class CountingSampler(inner: RRSampler) extends RRSampler {
  def sample(rng: java.util.SplittableRandom): Array[Int] = {
    CountingSampler.draws.incrementAndGet()
    inner.sample(rng)
  }
  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    CountingSampler.writes.incrementAndGet()
    out.defaultWriteObject()
  }
}

object CountingSampler {
  val writes = new java.util.concurrent.atomic.AtomicInteger
  val draws = new java.util.concurrent.atomic.AtomicLong
}
