package repro.items

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, TestInputs}

class ValuationSpec extends AnyFunSuite with PropHelpers {

  test("AdditiveValuation sums per-item values and is modular") {
    val t = Valuations.additive(Array(1.0, 2.0, 3.0))
    assert(t.length == 8)
    assert(t(0) == 0.0)
    assert(t(0b101) == 4.0)
    assert(t(0b111) == 6.0)
    assert(SetFunctions.isSupermodular(t))
    assert(SetFunctions.isMonotone(t))
  }

  test("TwoItemValuation matches Table 3 shapes and is supermodular") {
    val v = Valuations.twoItem(1.7, 2.7, 8.0)
    assert(v.toSeq == Seq(0.0, 1.7, 2.7, 8.0))
    assert(SetFunctions.isSupermodular(v))
    assert(SetFunctions.isMonotone(v))
  }

  test("TwoItemValuation with subadditive bundle is NOT supermodular") {
    val v = Valuations.twoItem(3.0, 3.0, 4.0)
    assert(!SetFunctions.isSupermodular(v))
  }

  test("ConeValuation is monotone and supermodular for every core") {
    for (k <- 2 to 6; core <- 0 until k) {
      val t = Valuations.cone(k, core)
      assert(SetFunctions.isSupermodular(t), s"k=$k core=$core")
      assert(SetFunctions.isMonotone(t), s"k=$k core=$core")
    }
  }

  test("ConeValuation deterministic utility: 5 + 2(|S|-1) with core, negative without") {
    val k = 5; val core = 2
    val v = Valuations.cone(k, core)
    val prices = Array.fill(k)(1.0)
    val m = UtilityModel(v, prices, TestInputs.noNoise(k))
    val det = m.deterministicUtility
    for (mask <- 1 until (1 << k)) {
      val s = Integer.bitCount(mask)
      if ((mask & (1 << core)) != 0) assert(det(mask) == 5.0 + 2.0 * (s - 1), s"mask=$mask")
      else assert(det(mask) < 0, s"mask=$mask")
    }
  }

  test("TableValuation rejects non-power-of-two tables and nonzero V(empty)") {
    intercept[IllegalArgumentException](UtilityModel(Array(0.0, 1.0, 2.0), Array(1.0, 1.0), TestInputs.noNoise(2)))
    intercept[IllegalArgumentException](UtilityModel(Array(0.0, 1.0, 2.0), Array(1.0), TestInputs.noNoise(1)))
    intercept[IllegalArgumentException](UtilityModel(Array(1.0, 1.0), Array(1.0), TestInputs.noNoise(1)))
  }

  test("LevelWiseValuation (Config 10) is well-defined, monotone and supermodular across seeds") {
    forSeeds(25) { seed =>
      val rng = new SplittableRandom(seed)
      val k = 3 + rng.nextInt(4) // 3..6 items
      val prices = Array.fill(k)(1.0 + rng.nextDouble() * 4.0)
      val v = LevelWiseValuation.build(k, prices, rng.nextLong())
      assert(v(0) == 0.0)
      assert(v.length == 1 << k)
      assert(SetFunctions.isMonotone(v), s"seed=$seed k=$k not monotone")
      assert(SetFunctions.isSupermodular(v), s"seed=$seed k=$k not supermodular")
    }
  }

  test("LevelWiseValuation level-1 utilities are mixed in sign (some non-negative exists eventually)") {
    var sawPositive = false
    var sawNegative = false
    forSeeds(20) { seed =>
      val prices = Array.fill(4)(3.0)
      val v = LevelWiseValuation.build(4, prices, seed)
      for (i <- 0 until 4) {
        val u = v(1 << i) - prices(i)
        if (u >= 0) sawPositive = true else sawNegative = true
      }
    }
    assert(sawPositive && sawNegative)
  }

  test("SetFunctions.isSupermodular detects a violation") {
    // f(S) = sqrt(|S|) is submodular, not supermodular
    val f = Array.tabulate(16)(m => math.sqrt(Integer.bitCount(m).toDouble))
    assert(!SetFunctions.isSupermodular(f))
  }

  test("SetFunctions.isSupermodular agrees with the definition over all S ⊆ T: supermodular, rough and PS4 tables") {
    /** `f(S+i) - f(S) <= f(T+i) - f(T)` for all `S ⊆ T` and `i ∉ T`, by brute force. */
    def byDefinition(f: Array[Double], k: Int): Boolean =
      (0 until (1 << k)).forall { t =>
        (Itemsets.nonEmptySubsets(t) :+ 0).forall { s =>
          (0 until k).filter(i => (t & (1 << i)) == 0).forall { i =>
            f(s | (1 << i)) - f(s) <= f(t | (1 << i)) - f(t) + 1e-9
          }
        }
      }
    var yes = 0
    var no = 0
    def check(f: Array[Double], k: Int, clue: String): Unit = {
      val want = byDefinition(f, k)
      assert(SetFunctions.isSupermodular(f) == want, clue)
      if (want) yes += 1 else no += 1
    }
    forSeeds(100) { s =>
      val rng = new SplittableRandom(s)
      val k = 1 + rng.nextInt(5)
      val prices = Array.fill(k)(1.0 + rng.nextDouble())
      val v = LevelWiseValuation.build(k, prices, rng.nextLong())
      check(v, k, s"level-wise seed=$s")
      check(UtilityModel(v, prices, NoiseSpec.uniform(k, 1.0)).sampleUtilityTable(rng), k, s"level-wise world seed=$s")
      check(Array.tabulate(1 << k)(m => if (m == 0) 0.0 else (rng.nextInt(7) - 3).toDouble), k, s"rough seed=$s")
    }
    val ps4 = repro.core.Configs.realPs4.model
    val rng = new SplittableRandom(3)
    for (w <- 0 until 10) check(ps4.sampleUtilityTable(rng), 5, s"PS4 world $w")
    check(ps4.valuation, 5, "PS4 valuation")
    assert(yes >= 200 && no >= 60, s"supermodular $yes, not $no")
  }

  test("SetFunctions.isMonotone detects a violation") {
    val f = Array(0.0, 1.0, 2.0, 1.5) // f({1,2}) < f({2})
    assert(!SetFunctions.isMonotone(f))
  }
}
