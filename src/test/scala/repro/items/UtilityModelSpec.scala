package repro.items

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, TestInputs}
import repro.core.Configs

class UtilityModelSpec extends AnyFunSuite with PropHelpers {

  private val model = UtilityModel(
    Valuations.twoItem(1.7, 2.7, 8.0),
    Array(3.0, 4.0),
    NoiseSpec(Array(1.0, 1.0)),
  )

  test("more than 20 items is rejected") {
    // by the builders, before they allocate a 2^k table
    intercept[IllegalArgumentException](Valuations.additive(Array.fill(21)(1.0)))
    intercept[IllegalArgumentException](Valuations.cone(21, 0))
    intercept[IllegalArgumentException](LevelWiseValuation.build(21, Array.fill(21)(1.0), 1L))
    intercept[IllegalArgumentException](Valuations.tabulate(21)(_ => 0.0))
    // and by the model, whatever table it is given
    intercept[IllegalArgumentException] {
      UtilityModel(Array(0.0, 1.0), Array.fill(21)(1.0), TestInputs.noNoise(21))
    }
  }

  test("deterministic utility = V - P (Table 3 Config 1 values)") {
    val det = model.deterministicUtility
    assert(math.abs(det(0)) < 1e-12)
    assert(math.abs(det(1) - (1.7 - 3.0)) < 1e-12)
    assert(math.abs(det(2) - (2.7 - 4.0)) < 1e-12)
    assert(math.abs(det(3) - (8.0 - 7.0)) < 1e-12)
  }

  test("utility table adds noise per item, additively") {
    val noise = Array(0.5, -0.25)
    val t = model.utilityTable(noise)
    assert(math.abs(t(1) - (1.7 - 3.0 + 0.5)) < 1e-12)
    assert(math.abs(t(2) - (2.7 - 4.0 - 0.25)) < 1e-12)
    assert(math.abs(t(3) - (8.0 - 7.0 + 0.25)) < 1e-12)
  }

  test("U(empty) stays 0 in every noise world") {
    forSeeds(10) { s =>
      val t = model.sampleUtilityTable(new SplittableRandom(s))
      assert(t(0) == 0.0)
    }
  }

  test("Lemma 1: utility is supermodular in every noise world when V is supermodular") {
    forSeeds(30) { s =>
      val t = model.sampleUtilityTable(new SplittableRandom(s))
      assert(SetFunctions.isSupermodular(t))
    }
  }

  test("supermodular, decided once per model, is each world's own check in the figures' configurations") {
    val configs = Configs.table3 ++ Seq(Configs.config7(10), Configs.configCone(8, 10, 0),
      Configs.configCone(9, 10, 9), Configs.config10(10), Configs.realPs4)
    for (cfg <- configs) {
      val rng = new SplittableRandom(cfg.no)
      val differ = (1 to 2000).count(_ => SetFunctions.isSupermodular(cfg.model.sampleUtilityTable(rng)) != cfg.model.supermodular)
      assert(differ == 0, s"${cfg.name}: $differ of 2000 worlds")
    }
    assert(configs.map(_.model.supermodular) == Seq.fill(configs.length - 1)(true) :+ false)
  }

  test("noise is zero-mean: MC average of sampled utility approaches deterministic utility") {
    val rng = new SplittableRandom(7)
    val runs = 20000
    var sum13 = 0.0
    (0 until runs).foreach { _ =>
      sum13 += model.sampleUtilityTable(rng)(3)
    }
    val mean = sum13 / runs
    assert(math.abs(mean - 1.0) < 0.05, s"mean=$mean") // det U({i1,i2}) = 1
  }

  test("NoiseSpec.none produces the deterministic table") {
    val m = model.copy(noise = TestInputs.noNoise(2))
    val rng = new SplittableRandom(3)
    assert(m.sampleUtilityTable(rng).toSeq == m.deterministicUtility.toSeq)
  }

  test("noise variance scales with std") {
    val spec = NoiseSpec(Array(2.0))
    val rng = new SplittableRandom(5)
    val xs = (0 until 20000).map(_ => spec.sample(rng)(0))
    val mean = xs.sum / xs.size
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / xs.size
    assert(math.abs(mean) < 0.06)
    assert(math.abs(varr - 4.0) < 0.25, s"var=$varr")
  }

  test("NoiseSpec rejects a negative or non-finite standard deviation") {
    for (std <- Seq(-1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      intercept[IllegalArgumentException](NoiseSpec(Array(1.0, std)))
      intercept[IllegalArgumentException](NoiseSpec.uniform(2, std))
    }
    assert(NoiseSpec(Array(0.0, 2.5)).k == 2)
  }

  test("model validates dimension agreement") {
    intercept[IllegalArgumentException] {
      UtilityModel(Valuations.twoItem(1, 1, 3), Array(1.0), TestInputs.noNoise(2))
    }
  }
}
