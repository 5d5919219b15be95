package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.items.{ItemsetChecks, Itemsets, SetFunctions}

class ConfigsSpec extends AnyFunSuite {

  test("Table 3 configs 1/2: items individually negative, bundle positive") {
    for (cfg <- Seq(Configs.config1, Configs.config2)) {
      val det = cfg.detUtil
      assert(det(1) < 0 && det(2) < 0 && det(3) > 0)
      assert(math.abs(det(1) + 1.3) < 1e-9)
      assert(math.abs(det(3) - 1.0) < 1e-9)
    }
  }

  test("Table 3 configs 3/4: items individually zero, bundle positive") {
    val det = Configs.config3.detUtil
    assert(det(1) == 0.0 && det(2) == 0.0 && det(3) == 1.0)
  }

  test("Table 3 configs 5/6: one zero, one negative, bundle positive") {
    val det = Configs.config5.detUtil
    assert(det(1) == 0.0 && det(2) == -1.0 && det(3) == 1.0)
  }

  test("Table 3 budget regimes alternate uniform / non-uniform") {
    assert(Configs.table3.map(_.uniformBudgets) == Seq(true, false, true, false, true, false))
  }

  test("all Table 3 valuations are monotone supermodular") {
    Configs.table3.foreach { cfg =>
      assert(SetFunctions.isSupermodular(cfg.model.valuation), cfg.name)
      assert(SetFunctions.isMonotone(cfg.model.valuation), cfg.name)
    }
  }

  test("Config 7: every item has deterministic utility 1, additively") {
    val cfg = Configs.config7(6)
    val det = cfg.detUtil
    for (mask <- 0 until 64) assert(math.abs(det(mask) - Integer.bitCount(mask)) < 1e-9)
  }

  test("Cone configs: positive utility iff the core is present") {
    val cfg = Configs.configCone(8, 5, core = 0)
    val det = cfg.detUtil
    for (mask <- 1 until 32) {
      if ((mask & 1) != 0) assert(det(mask) > 0, s"mask=$mask")
      else assert(det(mask) < 0, s"mask=$mask")
    }
  }

  test("Config 10 valuation is supermodular and monotone") {
    val cfg = Configs.config10(5, seed = 7)
    assert(SetFunctions.isSupermodular(cfg.model.valuation))
    assert(SetFunctions.isMonotone(cfg.model.valuation))
  }

  test("Config 10 is deterministic in its seed") {
    val a = Configs.config10(4, seed = 3).model.valuation.toSeq
    val b = Configs.config10(4, seed = 3).model.valuation.toSeq
    assert(a == b)
    assert(Configs.config10(4, seed = 4).model.valuation.toSeq != a)
  }

  test("realPs4 values match the published Table 5 rows") {
    val m = Configs.realPs4.model
    val ps = 1; val c = 2
    assert(m.valuation(ps) == 213.0)
    assert(m.valuation(ps | c) == 220.0)
    assert(m.valuation(ps | (7 << 2)) == 258.0) // {ps, g1, g2, g3}
    assert(m.valuation(ps | c | (3 << 2)) == 292.5) // {ps, c, 2 games}
    assert(m.valuation(ps | c | (7 << 2)) == 302.0) // all five
  }

  test("realPs4 prices: ps 260, c 20, games 5 each") {
    assert(Configs.realPs4.model.prices.toSeq == Seq(260.0, 20.0, 5.0, 5.0, 5.0))
  }

  test("realPs4: positive deterministic utility iff {ps, c, >= 2 games}") {
    val det = Configs.realPs4.detUtil
    for (mask <- 1 until 32) {
      val hasPs = (mask & 1) != 0
      val hasC = (mask & 2) != 0
      val nGames = Integer.bitCount(mask >> 2)
      val expectPositive = hasPs && hasC && nGames >= 2
      if (expectPositive) assert(det(mask) > 0, s"mask=${ItemsetChecks.show(mask)} det=${det(mask)}")
      else assert(det(mask) < 0, s"mask=${ItemsetChecks.show(mask)} det=${det(mask)}")
    }
  }

  test("realPs4 itemsets without ps have zero value") {
    val m = Configs.realPs4.model
    for (mask <- 1 until 32 if (mask & 1) == 0) assert(m.valuation(mask) == 0.0)
  }

  test("realPs4 noise variances: ps+c = 6, ps+3 games ~ 5, all ~ 7") {
    val stds = Configs.realPs4.model.noise.stds
    def varOf(mask: Int): Double =
      Itemsets.items(mask).map(i => stds(i) * stds(i)).sum
    assert(math.abs(varOf(3) - 6.0) < 1e-9)
    assert(math.abs(varOf(1 | (7 << 2)) - 5.0) < 0.01)
    assert(math.abs(varOf(31) - 7.0) < 0.01)
  }

  test("budget splits sum to the total") {
    assert(Configs.realSplit(500).sum == 500)
    assert(Configs.realSplit(500).toSeq == Seq(150, 150, 100, 50, 50))
    assert(Configs.uniformSplit(10, 500).toSeq == Seq.fill(10)(50))
    assert(Configs.uniformSplit(3, 500).toSeq == Seq(167, 167, 166))
    assert(Configs.skewedSplit(10, 500).sum == 500)
  }

  test("budget splits reject totals they cannot split into whole budgets of at least 1") {
    // realSplit(15) would drop the remainder (4/4/3/1/1 = 13); the others would hand out zero budgets.
    for (total <- Seq(15, 25, 0, -10)) intercept[IllegalArgumentException](Configs.realSplit(total))
    intercept[IllegalArgumentException](Configs.skewedSplit(10, 5))
    intercept[IllegalArgumentException](Configs.uniformSplit(10, 5))
    assert(Configs.realSplit(10).toSeq == Seq(3, 3, 2, 1, 1))
    assert(Configs.uniformSplit(10, 10).toSeq == Seq.fill(10)(1))
  }

  test("skewedSplit puts 20% at item 0 and 2% at the last item") {
    val b = Configs.skewedSplit(10, 500)
    assert(b(0) == 100 && b(9) == 10)
    assert(b.slice(1, 9).forall(x => x >= 48 && x <= 50))
  }

  test("skewedSplit fails when the middle share outgrows the 20% item") {
    // skewedSplit(3, 10) would give 2,7,1 and skewedSplit(5, 100) 20,26,26,26,2: the max is not item 0
    for ((k, total) <- Seq(3 -> 10, 5 -> 100)) {
      val e = intercept[IllegalArgumentException](Configs.skewedSplit(k, total))
      assert(e.getMessage.contains("item 0"), e.getMessage)
    }
    // six items fit: the middle ties the 20% item, which stays at index 0
    assert(Configs.skewedSplit(6, 100).toSeq == Seq(20, 20, 20, 19, 19, 2))
  }

  test("skew distributions match §6.4 / Fig 8(c)") {
    val d = Configs.skewDistributions.toMap
    assert(d("Uniform").sum == 500 && d("Uniform").distinct.length == 1)
    assert(d("Large skew").max == 410 && d("Large skew").sum == 500)
    assert(d("Moderate skew").toSeq == Seq(10, 20, 30, 40, 50, 50, 60, 70, 80, 90))
  }
}
