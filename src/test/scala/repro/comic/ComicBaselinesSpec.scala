package repro.comic

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, SparkSpec, TestInputs}
import repro.core.Configs
import repro.graph.{GraphGen, SocialGraph}
import repro.im.PRIMM

class ComicBaselinesSpec extends AnyFunSuite with SparkSpec with PropHelpers {

  private lazy val g = GraphGen.powerLawDirected("t", 300, 2400, seed = 21)

  test("forwardSpread with q=1 and p=1 floods reachable nodes") {
    val chain = TestInputs.fromEdgesWithProb("c", 4, Array((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    val adopted = ComicReference.forwardSpread(chain, w = 5, seeds = Array(0),
      qSelf = 1.0, qBoost = 1.0, boosted = _ => false, salt = 13)
    assert(adopted.forall(identity))
    val isSeed = Array(true, false, false, false)
    assert((0 until 4).forall(ComicBaselines.adoptsInSpread(chain, 5, isSeed, _ => 1.0, 13)))
  }

  test("forwardSpread with q=0 adopts nothing") {
    val chain = TestInputs.fromEdgesWithProb("c", 3, Array((0, 1, 1.0), (1, 2, 1.0)))
    val adopted = ComicReference.forwardSpread(chain, w = 5, seeds = Array(0),
      qSelf = 0.0, qBoost = 0.0, boosted = _ => false, salt = 13)
    assert(!adopted.exists(identity))
    assert(!(0 until 3).exists(ComicBaselines.adoptsInSpread(chain, 5, Array(true, false, false), _ => 0.0, 13)))
  }

  /** Every node's adoption query answers as the forward spread decides. */
  private def assertQueryMatchesSpread(g: SocialGraph, w: Long, seeds: Array[Int], qSelf: Double,
                                       qBoost: Double, boosted: Int => Boolean, salt: Long): Unit = {
    val spread = ComicReference.forwardSpread(g, w, seeds, qSelf, qBoost, boosted, salt)
    val isSeed = Array.tabulate(g.n)(seeds.contains)
    val query = ComicBaselines.adoptsInSpread(g, w, isSeed, u => if (boosted(u)) qBoost else qSelf, salt) _
    (0 until g.n).foreach { u =>
      assert(query(u) == spread(u), s"${g.name}: node $u in world $w (seeds ${seeds.mkString(",")}, q $qSelf/$qBoost)")
    }
  }

  test("the adoption query equals the forward spread on random graphs, worlds, seeds and GAPs") {
    forSeeds(150) { s =>
      val rng = new SplittableRandom(s)
      val n = 1 + rng.nextInt(25)
      val arcs = Array.fill(rng.nextInt(4 * n + 1))((rng.nextInt(n), rng.nextInt(n), rng.nextDouble()))
      // some arcs again at a fresh probability
      val dups = arcs.filter(_ => rng.nextInt(4) == 0).map { case (u, v, _) => (u, v, rng.nextDouble()) }
      val g = TestInputs.fromEdgesWithProb(s"rand-$s", n, arcs ++ dups)
      def q(): Double = rng.nextInt(4) match { case 0 => 0.0; case 1 => 1.0; case _ => rng.nextDouble() }
      val seeds = Array.fill(rng.nextInt(5))(rng.nextInt(n))
      val (qSelf, qBoost) = (q(), q())
      val boosted = Array.fill(n)(rng.nextBoolean())
      (0 until 10).foreach(_ => assertQueryMatchesSpread(g, rng.nextLong(), seeds, qSelf, qBoost, boosted(_), 13))
      // the same arcs under weighted cascade, where a repeated arc is two coins
      val wc = TestInputs.fromEdges(s"rand-wc-$s", n, (arcs ++ dups).map { case (u, v, _) => (u, v) })
      (0 until 10).foreach(_ => assertQueryMatchesSpread(wc, rng.nextLong(), seeds, qSelf, qBoost, boosted(_), 13))
    }
    // the samplers' own GAPs on a power-law graph
    val seeds = (0 until g.n).sortBy(u => -TestInputs.outDeg(g, u)).take(15).toArray
    for (cfg <- Seq(Configs.config1, Configs.config3, Configs.config5); w <- 0 until 20) {
      val gap = cfg.gap
      assertQueryMatchesSpread(g, w.toLong, seeds, gap.qB0, gap.qBA, seeds.contains, 17)
      assertQueryMatchesSpread(g, w.toLong, seeds, gap.qAB, gap.qAB, _ => true, 13)
    }
  }

  test("the RR samplers reject seeds outside the graph") {
    val gap = Configs.config1.gap
    for (bad <- Seq(-1, g.n)) {
      intercept[IllegalArgumentException](new ComicBaselines.RRSimSampler(g, Array(0, bad), gap))
      intercept[IllegalArgumentException](new ComicBaselines.RRCimSampler(g, Array(bad, 0), gap))
    }
  }

  test("reverseAdoptingSet with passing predicate equals the RR ancestor set") {
    val chain = TestInputs.fromEdgesWithProb("c", 4, Array((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    val rr = ComicBaselines.reverseAdoptingSet(chain, w = 5, root = 3, adopts = _ => true)
    assert(rr.toSet == Set(0, 1, 2, 3))
  }

  test("reverseAdoptingSet is empty when the root fails the predicate") {
    val chain = TestInputs.fromEdgesWithProb("c", 2, Array((0, 1, 1.0)))
    val rr = ComicBaselines.reverseAdoptingSet(chain, w = 5, root = 1, adopts = _ != 1)
    assert(rr.isEmpty)
  }

  test("RRSimSampler yields non-empty sets at boosted rates under strong complementarity") {
    val gap = Configs.config1.gap // qA0 ~ 0.1, qAB ~ 0.99
    val seedsB = PRIMM.imm(spark, g, 10, eps = 0.5, seed = 1).seeds
    val sampler = new ComicBaselines.RRSimSampler(g, seedsB, gap)
    val rng = new SplittableRandom(4)
    val sets = (0 until 800).map(_ => sampler.sample(rng))
    val nonEmpty = sets.count(_.nonEmpty)
    // baseline alone would give ~ qA0 = 10%; boosting must lift it
    assert(nonEmpty > 80, s"nonEmpty=$nonEmpty of 800")
  }

  test("rrSimPlus respects budgets and returns distinct seeds") {
    val gap = Configs.config1.gap
    val (sA, sB) = ComicBaselines.rrSimPlus(spark, g, budgetA = 5, budgetB = 5, gap,
      seed = 3, maxRR = 5000)
    assert(sA.length == 5 && sB.length == 5)
    assert(sA.distinct.length == 5 && sB.distinct.length == 5)
  }

  test("rrCim respects budgets and returns distinct seeds") {
    val gap = Configs.config1.gap
    val (sA, sB) = ComicBaselines.rrCim(spark, g, budgetA = 5, budgetB = 5, gap,
      seed = 3, maxRR = 5000)
    assert(sA.length == 5 && sB.length == 5)
    assert(sB.distinct.length == 5)
  }

  test("under strong complementarity RR-SIM+ seeds overlap heavily with IMM top spreaders") {
    val gap = Configs.config1.gap
    val imm = PRIMM.imm(spark, g, 20, eps = 0.5, seed = 5).seeds.toSet
    val (sA, _) = ComicBaselines.rrSimPlus(spark, g, budgetA = 10, budgetB = 10, gap,
      seed = 5, maxRR = 20000)
    val overlap = sA.count(imm.contains)
    assert(overlap >= 5, s"only $overlap of 10 RR-SIM+ seeds among IMM top-20")
  }
}
