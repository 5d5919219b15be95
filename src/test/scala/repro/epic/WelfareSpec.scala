package repro.epic

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestInputs}
import repro.items._

class WelfareSpec extends AnyFunSuite with SparkSpec {
  import Example1._

  test("MC estimate is exact on a deterministic instance (p=1, no noise)") {
    val est = Welfare.estimate(spark, g, greedyAlloc, model, runs = 8, seed = 3)
    assert(est.welfare == 15.0)
    assert(est.adoptions == 15.0)
    assert(est.perRunWelfare.forall(_ == 15.0))
  }

  test("MC estimate on the alternative allocation: welfare 11, adoptions 16") {
    val est = Welfare.estimate(spark, g, altAlloc, model, runs = 8, seed = 3)
    assert(est.welfare == 11.0 && est.adoptions == 16.0)
  }

  test("estimate is deterministic in the seed") {
    val chain = TestInputs.fromEdges("chain", 3, Array((0, 1), (1, 2)))
    val m2 = UtilityModel(Valuations.twoItem(2, 2, 5), Array(1.0, 1.0), NoiseSpec.uniform(2, 1.0))
    val e1 = Welfare.estimate(spark, chain, Map(0 -> 3), m2, runs = 16, seed = 11)
    val e2 = Welfare.estimate(spark, chain, Map(0 -> 3), m2, runs = 16, seed = 11)
    assert(e1.perRunWelfare.toSeq == e2.perRunWelfare.toSeq)
  }

  test("expected welfare on a single edge matches the closed form") {
    // one item, V=2, P=1 (U=1, no noise); edge prob 0.5:
    // E[welfare] = U(seed) + 0.5 * U = 1.5
    val g2 = TestInputs.fromEdgesWithProb("e", 2, Array((0, 1, 0.5)))
    val m1 = UtilityModel(Valuations.additive(Array(2.0)), Array(1.0), TestInputs.noNoise(1))
    val est = Welfare.estimate(spark, g2, Map(0 -> 1), m1, runs = 4000, seed = 5)
    assert(math.abs(est.welfare - 1.5) < 0.05, s"got ${est.welfare}")
    assert(math.abs(est.adoptions - 1.5) < 0.05)
  }

  test("noise shifts realised welfare run-to-run but preserves the mean") {
    val g2 = TestInputs.fromEdgesWithProb("e", 1, Array.empty[(Int, Int, Double)])
    val m1 = UtilityModel(Valuations.additive(Array(5.0)), Array(1.0), NoiseSpec.uniform(1, 1.0))
    val est = Welfare.estimate(spark, g2, Map(0 -> 1), m1, runs = 4000, seed = 9)
    // seed adopts iff 4 + N >= 0 (virtually always); E[U] = 4.
    assert(math.abs(est.welfare - 4.0) < 0.1, s"got ${est.welfare}")
    assert(est.perRunWelfare.distinct.length > 100)
  }

  test("stderr is the standard error of the mean welfare, 0 for one run") {
    // mean 3, squared deviations 4 + 1 + 1 + 4 = 10: sqrt(10 / 3 / 4)
    val est = Welfare.Estimate(Array(1.0, 2.0, 4.0, 5.0), Array(0L, 1L, 2L, 5L))
    assert(est.welfare == 3.0 && est.adoptions == 2.0)
    assert(math.abs(est.stderr - 0.9128709291752769) < 1e-12)
    assert(Welfare.Estimate(Array(7.0), Array(1L)).stderr == 0.0)
    assert(Welfare.estimate(spark, g, greedyAlloc, model, runs = 8, seed = 3).stderr == 0.0)
  }

  test("paired z is the mean per-run difference over its standard error") {
    // differences 2, 3, 1, 6: mean 3, squared deviations 1 + 0 + 4 + 9 = 14,
    // standard error sqrt(14 / 3 / 4)
    val a = Welfare.Estimate(Array(3.0, 5.0, 4.0, 8.0), Array.fill(4)(0L))
    val b = Welfare.Estimate(Array(1.0, 2.0, 3.0, 2.0), Array.fill(4)(0L))
    assert(math.abs(a.pairedZ(b) - 3 / math.sqrt(14.0 / 12)) < 1e-12)
    assert(b.pairedZ(a) == -a.pairedZ(b))
  }

  test("paired z is 0 for equal runs and infinite when the runs differ by a constant") {
    val a = Welfare.Estimate(Array(3.0, 5.0, 4.0, 8.0), Array.fill(4)(0L))
    val up = Welfare.Estimate(a.perRunWelfare.map(_ + 2), a.perRunAdoptions)
    assert(a.pairedZ(a) == 0.0)
    assert(up.pairedZ(a) == Double.PositiveInfinity && a.pairedZ(up) == Double.NegativeInfinity)
  }

  test("paired z rejects estimates with unequal run counts") {
    val a = Welfare.Estimate(Array(3.0, 5.0, 4.0), Array.fill(3)(0L))
    val b = Welfare.Estimate(Array(1.0, 2.0), Array.fill(2)(0L))
    intercept[IllegalArgumentException](a.pairedZ(b))
    intercept[IllegalArgumentException](b.pairedZ(a))
  }

  test("an allocation outside the graph or the items fails on the driver") {
    for (bad <- Seq(Map(g.n -> 1), Map(-1 -> 1), Map(0 -> 3, 1 -> (1 << model.k))))
      intercept[IllegalArgumentException](Welfare.estimate(spark, g, bad, model, runs = 2, seed = 1))
  }

  test("zero-budget (empty) allocation has zero welfare") {
    val est = Welfare.estimate(spark, g, Map.empty, model, runs = 4, seed = 2)
    assert(est.welfare == 0.0 && est.adoptions == 0.0)
  }
}
