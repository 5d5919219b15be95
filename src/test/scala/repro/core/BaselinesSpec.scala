package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestInputs}
import repro.graph.GraphGen

class BaselinesSpec extends AnyFunSuite with SparkSpec {

  private lazy val g = GraphGen.powerLawDirected("t", 300, 2400, seed = 41)

  test("item-disj assigns every item to disjoint seed sets of its budget size") {
    val budgets = Array(6, 4, 2)
    val alloc = Baselines.itemDisj(spark, g, budgets, seed = 1)
    val sets = budgets.indices.map(Allocation.seedsOfItem(alloc, _))
    assert(sets.map(_.size).toSeq == Seq(6, 4, 2))
    for (i <- sets.indices; j <- sets.indices if i < j)
      assert(sets(i).intersect(sets(j)).isEmpty, s"items $i,$j overlap")
  }

  test("item-disj gives larger-budget items the earlier (higher-spread) seeds") {
    val budgets = Array(2, 8)
    val alloc = Baselines.itemDisj(spark, g, budgets, seed = 2)
    // item 1 has the larger budget: its seeds come first in the IMM order
    val s0 = Allocation.seedsOfItem(alloc, 0)
    val s1 = Allocation.seedsOfItem(alloc, 1)
    assert(s0.size == 2 && s1.size == 8 && s0.intersect(s1).isEmpty)
  }

  test("bundle-disj under Config 1 (only bundle {i1,i2}) seeds both items together") {
    val budgets = Array(5, 5)
    val alloc = Baselines.bundleDisj(spark, g, budgets, Configs.config1.detUtil, seed = 3)
    val s0 = Allocation.seedsOfItem(alloc, 0)
    val s1 = Allocation.seedsOfItem(alloc, 1)
    assert(s0 == s1 && s0.size == 5)
  }

  test("bundle-disj under Config 1 equals greedyWM for uniform budgets (paper §6.2)") {
    val budgets = Array(5, 5)
    val bd = Baselines.bundleDisj(spark, g, budgets, Configs.config1.detUtil, seed = 4)
    val gw = GreedyWM.allocate(spark, g, budgets, seed = 4).alloc
    assert(bd.values.toSet == Set(3) && gw.values.toSet == Set(3))
    assert(bd.keySet == gw.keySet)
  }

  test("bundle-disj under Config 3 (individually positive) degenerates to item-disjoint singletons") {
    val budgets = Array(4, 4)
    val alloc = Baselines.bundleDisj(spark, g, budgets, Configs.config3.detUtil, seed = 5)
    val s0 = Allocation.seedsOfItem(alloc, 0)
    val s1 = Allocation.seedsOfItem(alloc, 1)
    assert(s0.size == 4 && s1.size == 4)
    assert(s0.intersect(s1).isEmpty, "singleton bundles must use fresh seeds")
  }

  test("bundle-disj under Config 7 makes one singleton bundle per item") {
    val k = 4
    val budgets = Array.fill(k)(3)
    val alloc = Baselines.bundleDisj(spark, g, budgets, Configs.config7(k).detUtil, seed = 6)
    val sets = (0 until k).map(Allocation.seedsOfItem(alloc, _))
    assert(sets.forall(_.size == 3))
    for (i <- 0 until k; j <- 0 until k if i < j)
      assert(sets(i).intersect(sets(j)).isEmpty)
  }

  test("bundle-disj surplus budget rides other bundles before fresh seeds (Config 5)") {
    // Config 5: i1 positive alone, i2 negative alone, bundle positive.
    // Bundle {i1,i2} formed first (size-2 is the smallest non-negative set
    // containing i2? No: {i1} alone is non-negative and smaller).
    // So bundles: {i1} (budget 6), then no more (i2 alone negative).
    // i2's budget rides {i1}'s seeds.
    val budgets = Array(6, 3)
    val alloc = Baselines.bundleDisj(spark, g, budgets, Configs.config5.detUtil, seed = 7)
    val s0 = Allocation.seedsOfItem(alloc, 0)
    val s1 = Allocation.seedsOfItem(alloc, 1)
    assert(s0.size == 6)
    assert(s1.size == 3 && s1.subsetOf(s0), "i2 must ride i1's bundle seeds")
  }

  test("bundle-disj respects budgets in every configuration") {
    for ((cfg, budgets) <- Seq(
        (Configs.config1, Array(4, 7)),
        (Configs.config3, Array(3, 3)),
        (Configs.config5, Array(5, 2)),
      )) {
      val alloc = Baselines.bundleDisj(spark, g, budgets, cfg.detUtil, seed = 8)
      assert(budgets.indices.map(Allocation.seedsOfItem(alloc, _).size) == budgets.toSeq, cfg.name)
    }
  }

  test("item-disj respects budgets") {
    val budgets = Array(10, 5, 1)
    val alloc = Baselines.itemDisj(spark, g, budgets, seed = 9)
    assert(budgets.indices.map(Allocation.seedsOfItem(alloc, _).size) == budgets.toSeq)
  }

  test("item-disj rejects budgets summing past the node count") {
    val small = TestInputs.uniformDirected("s", 10, 30, seed = 3)
    intercept[IllegalArgumentException](Baselines.itemDisj(spark, small, Array(6, 5)))
  }

  test("bundle-disj rejects budgets that need more fresh seeds than there are nodes") {
    // Config 3 seeds each item on its own fresh nodes: 6 + 5 > 10
    val small = TestInputs.uniformDirected("s", 10, 30, seed = 3)
    intercept[IllegalArgumentException](
      Baselines.bundleDisj(spark, small, Array(6, 5), Configs.config3.detUtil, seed = 5))
  }
}
