package repro.epic

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestInputs}
import repro.graph.SocialGraph
import repro.items._

/** Theorems 1-2 (§4.2) demonstrated on the paper's own counterexamples,
  * evaluated through the actual diffusion engine (zero noise makes the
  * expectations exact, and zero noise is a valid bounded noise choice).
  */
class ModelPropertiesSpec extends AnyFunSuite with SparkSpec {

  private def rho(g: SocialGraph, model: UtilityModel, alloc: Map[Int, Int]): Double = {
    val est = Welfare.estimate(spark, g, alloc, model, runs = 4, seed = 1)
    est.welfare
  }

  test("Theorem 2: welfare is not submodular (single-node counterexample)") {
    // one node, two items: each alone negative, together positive
    val g = TestInputs.fromEdgesWithProb("1n", 1, Array.empty[(Int, Int, Double)])
    val model = UtilityModel(Valuations.twoItem(1.0, 1.0, 5.0), Array(2.0, 2.0), TestInputs.noNoise(2))
    val s = Map.empty[Int, Int]
    val sPrime = Map(0 -> 1) // (u, i1)
    val addI2 = 2
    val gainSmall = rho(g, model, Map(0 -> addI2)) - rho(g, model, s)
    val gainLarge = rho(g, model, Map(0 -> (1 | addI2))) - rho(g, model, sPrime)
    assert(gainSmall == 0.0)
    assert(gainLarge > 0.0) // bundle utility 1 appears only on the larger set
    assert(gainLarge > gainSmall, "submodularity would require gainSmall >= gainLarge")
  }

  test("Theorem 2: welfare is not supermodular (two-node counterexample)") {
    // v1 -> v2 with p = 1, one item with positive utility
    val g = TestInputs.fromEdgesWithProb("2n", 2, Array((0, 1, 1.0)))
    val model = UtilityModel(Valuations.additive(Array(3.0)), Array(1.0), TestInputs.noNoise(1))
    val s = Map.empty[Int, Int]
    val sPrime = Map(0 -> 1) // (v1, i)
    val gainSmall = rho(g, model, Map(1 -> 1)) - rho(g, model, s) // add (v2, i) to empty
    val gainLarge = rho(g, model, Map(0 -> 1, 1 -> 1)) - rho(g, model, sPrime)
    assert(gainSmall == 2.0) // v2 adopts, utility 2
    assert(gainLarge == 0.0) // v2 already reached through v1
    assert(gainLarge < gainSmall, "supermodularity would require gainLarge >= gainSmall")
  }

  test("Theorem 1: expected welfare is monotone on Example 1 allocation chain") {
    import Example1._
    val chain = Seq(
      Map.empty[Int, Int],
      Map(4 -> 1),
      Map(4 -> 3),
      Map(4 -> 7),
      Map(4 -> 7, 0 -> 1),
      Map(4 -> 7, 0 -> 3),
    )
    val welfares = chain.map(a => rho(g, model, a))
    welfares.zip(welfares.tail).foreach { case (a, b) =>
      assert(b >= a - 1e-9, s"monotonicity violated: $welfares")
    }
  }

  test("expected welfare generalises expected spread (single item, utility 1)") {
    // With one item of utility exactly 1 and every node seeded-or-reached
    // adopting, welfare == adoption count == spread.
    val g = TestInputs.fromEdgesWithProb("sp", 4,
      Array((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    val model = UtilityModel(Valuations.additive(Array(2.0)), Array(1.0), TestInputs.noNoise(1))
    val est = Welfare.estimate(spark, g, Map(0 -> 1), model, runs = 4)
    assert(est.welfare == 4.0 && est.adoptions == 4.0)
  }
}
