package repro.items

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, TestInputs}

class AdoptionSpec extends AnyFunSuite with PropHelpers {

  /** Example-1 utility table (masks i1=1, i2=2, i3=4): singletons and
    * {i2,i3} negative; U({i1,i2}) = U({i1,i3}) = 1; U(all) = 3.
    */
  val exampleUtil: Array[Double] = {
    val values = Array(0.0, 1.0, 1.0, 5.0, 1.0, 5.0, 3.0, 9.0)
    UtilityModel(values, Array(2.0, 2.0, 2.0), TestInputs.noNoise(3)).deterministicUtility
  }

  test("Example 1 utility table has the paper's signs") {
    assert(exampleUtil(1) < 0 && exampleUtil(2) < 0 && exampleUtil(4) < 0)
    assert(exampleUtil(3) == 1.0 && exampleUtil(5) == 1.0)
    assert(exampleUtil(6) < 0)
    assert(exampleUtil(7) == 3.0)
  }

  test("seed adoption picks the utility-maximising subset of the allocation") {
    assert(Adoption.adopt(exampleUtil, 7, 0) == 7) // all three: U=3
    assert(Adoption.adopt(exampleUtil, 3, 0) == 3) // {i1,i2}: U=1
    assert(Adoption.adopt(exampleUtil, 1, 0) == 0) // {i1} alone: negative -> nothing
    assert(Adoption.adopt(exampleUtil, 6, 0) == 0) // {i2,i3}: negative -> nothing
  }

  test("adoption with a previous set must include it") {
    // prev {i1,i2}; desire all: best superset is all (U=3 > 1)
    assert(Adoption.adopt(exampleUtil, 7, 3) == 7)
  }

  test("adoption never decreases the previous set") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(3, rng)
      val desire = rng.nextInt(8)
      val prev = {
        // a valid previous adoption: adopt from a sub-desire
        val d0 = desire & rng.nextInt(8)
        Adoption.adopt(util, d0, 0)
      }
      val a = Adoption.adopt(util, desire | prev, prev)
      assert((prev & ~a) == 0)
    }
  }

  test("Lemma 3 invariant: any adoption result is a local maximum") {
    forSeeds(60) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val desire = rng.nextInt(16)
      val a = Adoption.adopt(util, desire, 0)
      assert(ItemsetChecks.isLocalMaximum(util, a), s"seed=$s util=${util.toSeq} desire=$desire a=$a")
    }
  }

  test("adopted set always has non-negative utility") {
    forSeeds(60) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val a = Adoption.adopt(util, rng.nextInt(16), 0)
      assert(util(a) >= -1e-9)
    }
  }

  test("tie-break favours larger cardinality (union of argmaxes, Lemma 2)") {
    // Additive utility where item 2 has utility exactly 0: both {i1} and
    // {i1,i2} are argmax -> adopt the union {i1,i2}.
    val m = UtilityModel(Valuations.additive(Array(2.0, 1.0)), Array(1.0, 1.0), TestInputs.noNoise(2))
    val util = m.deterministicUtility
    assert(util(1) == 1.0 && util(3) == 1.0)
    assert(Adoption.adopt(util, 3, 0) == 3)
  }

  test("tied maxima whose union is worse: adopt one of the largest maxima, not the union") {
    // U({1}) = U({2}) = 1 but U({1,2}) = -5: the union is no argmax.
    assert(Set(1, 2).contains(Adoption.adopt(Array(0.0, 1.0, 1.0, -5.0), 3, 0)))
    // {1,2} and {3} tie at 2, their union {1,2,3} is worse: keep {1,2}.
    val util = Array(0.0, 0.0, 0.0, 2.0, 2.0, -1.0, -1.0, -1.0)
    assert(Adoption.adopt(util, 7, 0) == 3)
  }

  test("adopt is a largest-cardinality argmax: random non-supermodular tables and PS4") {
    /** Every `T` with `prev ⊆ T ⊆ desire`, by brute force. */
    def candidates(k: Int, desire: Int, prev: Int): Seq[Int] =
      (0 until (1 << k)).filter(t => (t & ~desire) == 0 && (t & prev) == prev)
    def check(util: Array[Double], k: Int, desire: Int, prev: Int, clue: String): Unit = {
      val all = candidates(k, desire, prev)
      val best = all.map(util).max
      val argmax = all.filter(t => util(t) >= best - 1e-9)
      val got = Adoption.adopt(util, desire, prev)
      assert(argmax.contains(got), s"$clue desire=$desire prev=$prev got=$got util=${util.toSeq}")
      assert(Integer.bitCount(got) == argmax.map(Integer.bitCount).max, s"$clue desire=$desire prev=$prev")
      // A world that is not supermodular gets the plain rule, for any prev.
      if (!SetFunctions.isSupermodular(util))
        assert(Adoption.inWorld(util, supermodular = false)(desire, prev) == got, s"$clue inWorld desire=$desire prev=$prev")
    }
    // Small integer utilities: ties are common and most tables are not supermodular.
    var nonSupermodular = 0
    forSeeds(400) { s =>
      val rng = new SplittableRandom(s)
      val k = 2 + rng.nextInt(4)
      val util = Array.tabulate(1 << k)(m => if (m == 0) 0.0 else (rng.nextInt(7) - 3).toDouble)
      if (!SetFunctions.isSupermodular(util)) nonSupermodular += 1
      val desire = rng.nextInt(1 << k)
      val prevs = candidates(k, desire, 0).filter(util(_) >= 0)
      check(util, k, desire, 0, s"seed=$s")
      check(util, k, desire, prevs(rng.nextInt(prevs.length)), s"seed=$s")
    }
    assert(nonSupermodular > 300)
    // PS4: its deterministic table and noise worlds with integer noise (ties between games).
    val ps4 = repro.core.Configs.realPs4.model
    val rng = new SplittableRandom(7)
    val tables = ps4.deterministicUtility +: Seq.fill(40)(ps4.utilityTable(Array.fill(5)((rng.nextInt(41) - 20).toDouble)))
    for ((util, w) <- tables.zipWithIndex; desire <- 0 until 32) check(util, 5, desire, 0, s"PS4 world $w")
  }

  test("byDesire(util)(R) is adopt(util, R, prev) for every earlier adoption prev in supermodular worlds") {
    /** Every `(R′, R)` with `R′ ⊆ R` over `k` items. */
    def nested(k: Int): Seq[(Int, Int)] =
      for (r <- 0 until (1 << k); r0 <- Itemsets.nonEmptySubsets(r) :+ 0) yield (r0, r)
    def check(util: Array[Double], k: Int, clue: String): Unit = {
      assert(SetFunctions.isSupermodular(util), clue)
      val table = Adoption.byDesire(util)
      val rule = Adoption.inWorld(util, supermodular = true)
      for ((r0, r) <- nested(k); prev <- Seq(table(r0), Adoption.adopt(util, r0, 0))) {
        val want = Adoption.adopt(util, r, prev)
        // Build the clue only on failure: rendering util.toSeq on all ~350K steps took ~27 s.
        if (table(r) != want) fail(s"$clue desire=$r prev=$prev util=${util.toSeq}")
        if (rule(r, prev) != want) fail(s"$clue desire=$r prev=$prev")
      }
    }
    forSeeds(60) { s =>
      val rng = new SplittableRandom(s)
      val k = 1 + rng.nextInt(6)
      check(randomSupermodularUtil(k, rng), k, s"random seed=$s")
      // Integer singletons and non-negative integer interactions, no noise:
      // exact ties everywhere, and a supermodular table by construction.
      val w = Array.tabulate(1 << k) { m =>
        if (m == 0) 0.0 else if (Integer.bitCount(m) == 1) rng.nextInt(5) - 3.0 else if (rng.nextInt(3) == 0) 1.0 else 0.0
      }
      for (i <- 0 until k; m <- 0 until (1 << k) if (m & (1 << i)) != 0) w(m) += w(m & ~(1 << i))
      check(w, k, s"integer seed=$s")
    }
    import repro.core.Configs._
    for (cfg <- Seq(config1, config3, config5, config7(10), configCone(8, 10, 0), config10(10)))
      check(cfg.detUtil, cfg.model.k, cfg.name)
  }

  test("empty-desire adoption stays empty") {
    assert(Adoption.adopt(exampleUtil, 0, 0) == 0)
  }

  test("invalid previous adoption outside desire is rejected") {
    intercept[IllegalArgumentException](Adoption.adopt(exampleUtil, 1, 2))
  }

  test("globalOptimum finds I* (all items in the example)") {
    assert(BlockAccounting.globalOptimum(exampleUtil) == 7)
  }

  test("globalOptimum is empty when everything has negative utility") {
    val util = Array(0.0, -1.0, -1.0, -0.5)
    assert(BlockAccounting.globalOptimum(util) == 0)
  }

  test("adoption is idempotent: adopting again from the same desire changes nothing") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val desire = rng.nextInt(16)
      val a1 = Adoption.adopt(util, desire, 0)
      val a2 = Adoption.adopt(util, desire, a1)
      assert(a1 == a2)
    }
  }

  test("monotone in desire: larger desire never yields lower utility") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val d1 = rng.nextInt(16)
      val d2 = d1 | rng.nextInt(16)
      val a1 = Adoption.adopt(util, d1, 0)
      val a2 = Adoption.adopt(util, d2, 0)
      assert(util(a2) >= util(a1) - 1e-9)
    }
  }

  /** Random supermodular utility: supermodular valuation (built like
    * Config 10) minus random modular price plus modular noise.
    */
  def randomSupermodularUtil(k: Int, rng: SplittableRandom): Array[Double] = {
    val prices = Array.fill(k)(0.5 + rng.nextDouble() * 4.0)
    val v = LevelWiseValuation.build(k, prices, rng.nextLong())
    val noise = Array.fill(k)(rng.nextGaussian() * 1.5)
    UtilityModel(v, prices, TestInputs.noNoise(k)).utilityTable(noise)
  }
}
