package repro.comic

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers
import repro.core.Configs
import repro.items.Adoption

class ComICSpec extends AnyFunSuite with PropHelpers {

  test("erf accuracy against reference values") {
    // reference: erf(0)=0, erf(1)=0.8427007929, erf(2)=0.9953222650
    assert(math.abs(Gaussian.erf(0.0)) < 1e-7)
    assert(math.abs(Gaussian.erf(1.0) - 0.8427007929) < 2e-7)
    assert(math.abs(Gaussian.erf(2.0) - 0.9953222650) < 2e-7)
    assert(math.abs(Gaussian.erf(-1.0) + 0.8427007929) < 2e-7)
  }

  test("normal cdf symmetry and tails") {
    assert(math.abs(Gaussian.cdf(0.0) - 0.5) < 1e-7)
    assert(math.abs(Gaussian.cdf(1.0) - 0.8413447) < 1e-5)
    assert(math.abs(Gaussian.tailGE(1.3, 1.0) - 0.0968) < 1e-3)
  }

  test("Table 3 Config 1/2 derived GAPs match the paper (0.1 / 0.99)") {
    val gap = Configs.config1.gap
    assert(math.abs(gap.qA0 - 0.1) < 0.005)
    assert(math.abs(gap.qB0 - 0.1) < 0.005)
    assert(math.abs(gap.qAB - 0.99) < 0.005)
    assert(math.abs(gap.qBA - 0.99) < 0.005)
  }

  test("Table 3 Config 3/4 derived GAPs match the paper (0.5 / 0.84)") {
    val gap = Configs.config3.gap
    assert(math.abs(gap.qA0 - 0.5) < 0.005)
    assert(math.abs(gap.qB0 - 0.5) < 0.005)
    assert(math.abs(gap.qAB - 0.84) < 0.005)
    assert(math.abs(gap.qBA - 0.84) < 0.005)
  }

  test("Table 3 Config 5/6 derived GAPs match the paper (0.5/0.16/0.98/0.84)") {
    val gap = Configs.config5.gap
    assert(math.abs(gap.qA0 - 0.5) < 0.005)
    assert(math.abs(gap.qB0 - 0.16) < 0.005)
    assert(math.abs(gap.qAB - 0.98) < 0.005)
    assert(math.abs(gap.qBA - 0.84) < 0.005)
  }

  test("GAP mapping requires exactly two items") {
    intercept[IllegalArgumentException](Gap.fromUtilityModel(Configs.config7(3).model))
  }

  test("EPIC single-node adoption probability of item 1 alone equals q_{i1|0}") {
    // isolated node; MC over noise worlds under EPIC vs the closed-form GAP
    val cfg = Configs.config1
    val rng = new SplittableRandom(3)
    val runs = 20000
    var adopts = 0
    (0 until runs).foreach { _ =>
      val util = cfg.model.sampleUtilityTable(rng)
      if (Adoption.adopt(util, 1, 0) == 1) adopts += 1
    }
    val q = adopts.toDouble / runs
    assert(math.abs(q - cfg.gap.qA0) < 0.01, s"epic=$q gap=${cfg.gap.qA0}")
  }

  test("EPIC joint seeding beats single-item adoption under complementarity") {
    val cfg = Configs.config1
    val rng = new SplittableRandom(4)
    val runs = 20000
    var adoptsBoth = 0
    (0 until runs).foreach { _ =>
      val util = cfg.model.sampleUtilityTable(rng)
      if (Adoption.adopt(util, 3, 0) == 3) adoptsBoth += 1
    }
    // bundle utility 1 + N(0, sqrt2): P[U >= 0] = Phi(1/sqrt2) ~ 0.76
    val q = adoptsBoth.toDouble / runs
    assert(math.abs(q - Gaussian.cdf(1.0 / math.sqrt(2))) < 0.01, s"q=$q")
  }

  test("GAP rejects probabilities outside [0, 1]") {
    for (bad <- Seq(-0.1, 1.5, Double.NaN); slot <- 0 until 4) {
      val q = Array.fill(4)(0.5)
      q(slot) = bad
      intercept[IllegalArgumentException](Gap(q(0), q(1), q(2), q(3)))
    }
    assert(Gap(0.0, 1.0, 0.0, 1.0).qAB == 1.0)
  }
}
