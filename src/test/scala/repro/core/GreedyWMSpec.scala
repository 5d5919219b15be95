package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.epic.{EpicSimulator, Example1, Welfare}
import repro.graph.GraphGen

class GreedyWMSpec extends AnyFunSuite with SparkSpec {

  test("greedyWM on Example 1 reproduces the paper's greedy allocation and welfare 15") {
    val budgets = Array(2, 1, 1) // i1: 2 seeds, i2/i3: 1 each
    val res = GreedyWM.allocate(spark, Example1.g, budgets, eps = 0.3, seed = 3)
    // top spreader v5 (id 4) first, then v1 (id 0)
    assert(res.orderedSeeds.take(2).toSeq == Seq(4, 0))
    assert(res.alloc(4) == 7) // v5 gets all three items
    assert(res.alloc(0) == 1) // v1 gets i1 only
    val est = Welfare.estimate(spark, Example1.g, res.alloc, Example1.model, runs = 4)
    assert(est.welfare == 15.0)
  }

  test("greedyWM allocations are nested prefixes (bundling property)") {
    val g = GraphGen.powerLawDirected("t", 300, 2000, seed = 31)
    val budgets = Array(12, 7, 3)
    val res = GreedyWM.allocate(spark, g, budgets, seed = 4)
    val s1 = Allocation.seedsOfItem(res.alloc, 0)
    val s2 = Allocation.seedsOfItem(res.alloc, 1)
    val s3 = Allocation.seedsOfItem(res.alloc, 2)
    assert(s3.subsetOf(s2) && s2.subsetOf(s1))
    assert(s1.size == 12 && s2.size == 7 && s3.size == 3)
  }

  test("greedyWM respects budgets") {
    val g = GraphGen.powerLawDirected("t", 200, 1200, seed = 32)
    val budgets = Array(5, 5, 2, 1)
    val res = GreedyWM.allocate(spark, g, budgets, seed = 5)
    assert(budgets.indices.map(Allocation.seedsOfItem(res.alloc, _).size) == budgets.toSeq)
  }

  test("greedyWM is utility-agnostic: same allocation for any config with equal budgets") {
    val g = GraphGen.powerLawDirected("t", 200, 1200, seed = 33)
    val budgets = Array(4, 2)
    val r1 = GreedyWM.allocate(spark, g, budgets, seed = 6)
    val r2 = GreedyWM.allocate(spark, g, budgets, seed = 6)
    assert(r1.alloc == r2.alloc)
  }

  test("approximation: greedyWM welfare >= (1-1/e-eps) x best enumerated allocation (tiny instance)") {
    // Example-1 graph, no noise, p = 1 => welfare of any allocation is exact.
    val budgets = Array(1, 1, 1)
    val g = Example1.g
    val util = Example1.util
    val res = GreedyWM.allocate(spark, g, budgets, eps = 0.3, seed = 7)
    val greedyW = EpicSimulator.welfare(util,
      EpicSimulator.diffuse(g, res.alloc, util, new java.util.SplittableRandom(1)))
    // enumerate every allocation assigning each item to one node
    var best = 0.0
    for (v1 <- 0 until g.n; v2 <- 0 until g.n; v3 <- 0 until g.n) {
      val alloc = Seq(v1 -> 1, v2 -> 2, v3 -> 4)
        .groupBy(_._1).map { case (v, xs) => v -> xs.map(_._2).reduce(_ | _) }
      val w = EpicSimulator.welfare(util,
        EpicSimulator.diffuse(g, alloc, util, new java.util.SplittableRandom(1)))
      if (w > best) best = w
    }
    assert(greedyW >= (1 - 1.0 / math.E - 0.3) * best,
      s"greedy=$greedyW best=$best")
  }

  test("Allocation helpers: fromItemSeeds / seedsOfItem round-trip") {
    val alloc = Allocation.fromItemSeeds(Seq(Array(1, 2), Array(2, 3)))
    assert(alloc == Map(1 -> 1, 2 -> 3, 3 -> 2))
    assert(Allocation.seedsOfItem(alloc, 0) == Set(1, 2))
    assert(Allocation.seedsOfItem(alloc, 1) == Set(2, 3))
    // masks are Ints and utility tables stop at 20 items: item 32 would land on item 0
    val twenty = Allocation.fromItemSeeds(Seq.tabulate(20)(i => Array(i)))
    assert(twenty == (0 until 20).map(i => i -> (1 << i)).toMap)
    Seq(21, 33).foreach(k => intercept[IllegalArgumentException](Allocation.fromItemSeeds(Seq.tabulate(k)(i => Array(i)))))
  }
}
