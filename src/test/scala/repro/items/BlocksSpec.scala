package repro.items

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, TestInputs}

class BlocksSpec extends AnyFunSuite with PropHelpers {

  /** Example 3 utility table: U(i1)=U(i2)=U(i3)=U(i1,i2)=-1,
    * U(i1,i3)=U(i2,i3)=1, U(all)=4. Masks: i1=1, i2=2, i3=4.
    */
  private val ex3Util = Array(0.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 4.0)
  private val ex3Budgets = Array(3, 2, 1) // b1 > b2 > b3

  test("itemOrder sorts by non-increasing budget with index tie-break") {
    assert(Blocks.itemOrder(Array(3, 2, 1)).toSeq == Seq(0, 1, 2))
    assert(Blocks.itemOrder(Array(1, 2, 3)).toSeq == Seq(2, 1, 0))
    assert(Blocks.itemOrder(Array(5, 5, 1)).toSeq == Seq(0, 1, 2))
  }

  test("Example 2: the ≺ sequence over three items is numeric mask order") {
    // {i1},{i2},{i1,i2},{i3},{i1,i3},{i2,i3},{i1,i2,i3}
    val seq = Itemsets.nonEmptySubsets(7).sorted
    assert(seq == Seq(1, 2, 3, 4, 5, 6, 7))
  }

  test("Example 3: blocks are B1={i1,i3}, B2={i2} with deltas 1 and 3") {
    val bs = BlockAccounting.generate(ex3Util, ex3Budgets)
    assert(bs.iStar == 7)
    assert(bs.blocks == Vector(0b101, 0b010))
    assert(bs.deltas.map(d => math.round(d).toInt) == Vector(1, 3))
  }

  test("Example 4: proposed and effective budgets") {
    val bs = BlockAccounting.generate(ex3Util, ex3Budgets)
    assert(bs.proposedBudget(0) == 1) // min(b1, b3) = b3 = 1
    assert(bs.proposedBudget(1) == 2) // b2
    assert(bs.effectiveBudget(0) == 1)
    assert(bs.effectiveBudget(1) == 1) // min(b3, b2) = b3
    assert(!bs.isOverBudgeted(0))
    assert(bs.isOverBudgeted(1))
  }

  test("Example 5: anchors — B2's anchor block is B1, anchor item i3 for both") {
    val bs = BlockAccounting.generate(ex3Util, ex3Budgets)
    assert(bs.anchorBlockIdx(1) == 0)
    assert(bs.anchorItem(1) == 2) // i3 (0-based index 2)
    assert(bs.anchorBlockIdx(0) == 0)
    assert(bs.anchorItem(0) == 2)
  }

  test("Property 1: blocks disjointly partition I*") {
    forSeeds(50) { s =>
      val rng = new SplittableRandom(s)
      val (util, budgets) = randomInstance(rng)
      val bs = BlockAccounting.generate(util, budgets)
      val union = bs.blocks.foldLeft(0)(_ | _)
      assert(union == bs.iStar, s"seed=$s")
      val total = bs.blocks.map(Integer.bitCount).sum
      assert(total == Integer.bitCount(bs.iStar), s"seed=$s blocks overlap")
    }
  }

  test("Property 2: deltas non-negative and summing to U(I*)") {
    forSeeds(50) { s =>
      val rng = new SplittableRandom(s)
      val (util, budgets) = randomInstance(rng)
      val bs = BlockAccounting.generate(util, budgets)
      bs.deltas.foreach(d => assert(d >= -1e-9, s"seed=$s"))
      assert(math.abs(bs.deltas.sum - util(bs.iStar)) < 1e-6, s"seed=$s")
    }
  }

  test("Property 3: any proper subset precedes its superset in ≺") {
    val rng = new SplittableRandom(5)
    forRandomInts(100, 1, 255, seed = 5) { mask =>
      val order = Blocks.itemOrder(Array.fill(8)(rng.nextInt(5)))
      Itemsets.nonEmptySubsets(mask).filter(_ != mask).foreach { sub =>
        assert(Blocks.toRanked(sub, order) < Blocks.toRanked(mask, order))
      }
    }
  }

  test("Lemma 5(a): partial blocks have negative marginal utility") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val (util, budgets) = randomInstance(rng)
      val bs = BlockAccounting.generate(util, budgets)
      // random A subset of I*; check each partial A_i has Delta_i^A < 0
      val a = rng.nextInt(1 << budgets.length) & bs.iStar
      var prefix = 0
      for (i <- bs.blocks.indices) {
        val ai = a & bs.blocks(i)
        val delta = util(prefix | ai) - util(prefix)
        if (ai != 0 && ai != bs.blocks(i)) assert(delta < 1e-9, s"seed=$s block=$i")
        prefix |= ai
      }
    }
  }

  test("Lemma 5(b): Delta_i^A <= Delta_i for any A") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val (util, budgets) = randomInstance(rng)
      val bs = BlockAccounting.generate(util, budgets)
      val a = rng.nextInt(1 << budgets.length) & bs.iStar
      var prefixA = 0
      for (i <- bs.blocks.indices) {
        val ai = a & bs.blocks(i)
        val deltaA = util(prefixA | ai) - util(prefixA)
        assert(deltaA <= bs.deltas(i) + 1e-9, s"seed=$s block=$i")
        prefixA |= ai
      }
    }
  }

  test("effective budget equals the proposed budget of the anchor block") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val (util, budgets) = randomInstance(rng)
      val bs = BlockAccounting.generate(util, budgets)
      for (i <- bs.blocks.indices)
        assert(bs.effectiveBudget(i) == bs.proposedBudget(bs.anchorBlockIdx(i)), s"seed=$s block=$i")
    }
  }

  test("rankedToOrigMask round-trips") {
    val order = Array(2, 0, 1) // rank 0 -> item 2, etc.
    assert(BlockAccounting.rankedToOrigMask(0b001, order) == 0b100)
    assert(BlockAccounting.rankedToOrigMask(0b110, order) == 0b011)
    for (m <- 0 until 8) assert(Blocks.toRanked(BlockAccounting.rankedToOrigMask(m, order), order) == m)
  }

  test("single positive item becomes a single block") {
    val util = Array(0.0, 2.0) // one item, positive
    val bs = BlockAccounting.generate(util, Array(5))
    assert(bs.blocks == Vector(1) && math.abs(bs.deltas.head - 2.0) < 1e-12)
  }

  test("all-negative universe yields no blocks") {
    val util = Array(0.0, -1.0, -2.0, -0.5)
    val bs = BlockAccounting.generate(util, Array(2, 1))
    assert(bs.iStar == 0 && bs.blocks.isEmpty)
  }

  /** Random supermodular instance: Config-10 style valuation with random
    * prices/noise, 3..6 items, random budgets.
    */
  private def randomInstance(rng: SplittableRandom): (Array[Double], Array[Int]) = {
    val k = 3 + rng.nextInt(4)
    val prices = Array.fill(k)(0.5 + rng.nextDouble() * 4.0)
    val v = LevelWiseValuation.build(k, prices, rng.nextLong())
    val noise = Array.fill(k)(rng.nextGaussian() * 2.0)
    val util = UtilityModel(v, prices, TestInputs.noNoise(k)).utilityTable(noise)
    val budgets = Array.fill(k)(1 + rng.nextInt(100))
    (util, budgets)
  }
}
