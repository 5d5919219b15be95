package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.core.Configs
import repro.epic.Welfare
import repro.graph.{GraphGen, SocialGraph}
import repro.jobs.{Fig3TwoItemWelfare, Fig5MultiItemWelfare}

class ExperimentsSpec extends AnyFunSuite with SparkSpec {

  private lazy val g = GraphGen.powerLawDirected("t", 250, 1800, seed = 51)

  /** Welfare of `algo`'s seed-`s` allocation over `runs` worlds from seed `s * 31 + 1`. */
  private def welfareOf(algo: String, cfg: Configs.Config, budgets: Array[Int], runs: Int, s: Long): Double =
    Welfare.estimate(spark, g, Experiments.allocate(algo, spark, g, cfg, budgets, seed = s),
      cfg.model, runs, seed = s * 31 + 1).welfare

  test("every two-item algorithm produces a runnable allocation and welfare") {
    val cfg = Configs.config1
    val budgets = Array(4, 4)
    for (algo <- Experiments.twoItemAlgos) {
      val welfare = welfareOf(algo, cfg, budgets, runs = 4, s = 2)
      assert(welfare >= -1e-9, s"$algo produced negative welfare $welfare")
    }
  }

  test("every multi-item algorithm runs on Config 7 with 3 items") {
    val cfg = Configs.config7(3)
    val budgets = Array(4, 3, 2)
    for (algo <- Experiments.multiItemAlgos) {
      val welfare = welfareOf(algo, cfg, budgets, runs = 4, s = 3)
      assert(welfare > 0, s"$algo welfare should be positive under Config 7")
    }
  }

  test("greedyWM beats or matches item-disj under strong complementarity (Config 1)") {
    val cfg = Configs.config1
    val budgets = Array(6, 6)
    val gw = welfareOf(Experiments.AlgoGreedyWM, cfg, budgets, runs = 16, s = 4)
    val id = welfareOf(Experiments.AlgoItemDisj, cfg, budgets, runs = 16, s = 4)
    assert(gw >= id - 1e-9, s"greedyWM $gw < item-disj $id")
  }

  test("item-disj welfare is far below greedyWM when items are individually negative (Config 1)") {
    // Config 1: a singleton only goes positive when its shared noise draw
    // exceeds 1.3 (p ~ 0.1), so item-disj (disjoint seeds, no bundling)
    // collects a small fraction of greedyWM's welfare — the paper plots
    // it as ~0 next to greedyWM (Fig 3a).
    val cfg = Configs.config1
    val budgets = Array(6, 6)
    val id = welfareOf(Experiments.AlgoItemDisj, cfg, budgets, runs = 24, s = 5)
    val gw = welfareOf(Experiments.AlgoGreedyWM, cfg, budgets, runs = 24, s = 5)
    assert(id < 0.6 * gw, s"item-disj $id not far below greedyWM $gw")
  }

  // Configs 1/3/5 share a budget regime, as do 7/10.
  private val twoItemConfigs = Seq(Configs.config1, Configs.config3, Configs.config5)
  private val multiItemConfigs = Seq(Configs.config7(3), Configs.config10(3))
  private val (twoItemBudgets, multiItemBudgets) = (Array(4, 4), Configs.uniformSplit(3, 10))
  private val cells =
    (for (cfg <- twoItemConfigs; a <- Experiments.twoItemAlgos) yield (a, cfg, twoItemBudgets)) ++
      (for (cfg <- multiItemConfigs; a <- Experiments.multiItemAlgos) yield (a, cfg, multiItemBudgets))

  test("the welfare step equals per-cell allocation plus a seed-218 estimate") {
    val perCell = cells.map { case (a, cfg, b) =>
      Welfare.estimate(spark, g, Experiments.allocate(a, spark, g, cfg, b), cfg.model, 4, seed = 218).welfare
    }
    assert(Experiments.welfare(spark, g, cells, runs = 4).map(_._1.welfare) == perCell)
  }

  test("the allocation step gives each cell allocate's allocation, one instance per allocationKey, with its ms") {
    val step = Experiments.allocations(spark, g, cells)
    assert(step.map(_._1) == cells.map { case (a, cfg, b) => Experiments.allocate(a, spark, g, cfg, b) })
    val byKey = cells.zip(step.map(_._1)).groupMap { case ((a, cfg, b), _) => Experiments.allocationKey(a, cfg, b) }(_._2)
    assert(byKey.size < cells.size)
    for (allocs <- byKey.values) assert(allocs.forall(_ eq allocs.head))
    assert(step.forall(_._2 >= 0))
  }

  test("greedyWM and item-disj share one allocation across configurations, the other algorithms one per configuration") {
    def allocations(algo: String, cfgs: Seq[Configs.Config], budgets: Array[Int]): Int =
      cfgs.map(Experiments.allocationKey(algo, _, budgets)).distinct.size
    for (a <- Seq(Experiments.AlgoGreedyWM, Experiments.AlgoItemDisj)) {
      assert(allocations(a, twoItemConfigs, twoItemBudgets) == 1)
      assert(allocations(a, multiItemConfigs, multiItemBudgets) == 1)
    }
    for (a <- Seq(Experiments.AlgoBundleDisj, Experiments.AlgoRRSimPlus, Experiments.AlgoRRCim))
      assert(allocations(a, twoItemConfigs, twoItemBudgets) == twoItemConfigs.length)
    assert(allocations(Experiments.AlgoBundleDisj, multiItemConfigs, multiItemBudgets) == multiItemConfigs.length)
    assert(Experiments.allocationKey(Experiments.AlgoGreedyWM, Configs.config1, Array(4, 4)) !=
      Experiments.allocationKey(Experiments.AlgoGreedyWM, Configs.config1, Array(4, 5)))
  }

  test("Com-IC algorithms refuse more than two items") {
    val cfg = Configs.config7(3)
    intercept[IllegalArgumentException] {
      Experiments.allocate(Experiments.AlgoRRSimPlus, spark, g, cfg, Array(1, 1, 1))
    }
  }

  test("unknown algorithm is rejected") {
    intercept[RuntimeException] {
      Experiments.allocate("nope", spark, g, Configs.config1, Array(1, 1))
    }
  }

  test("budget grids match the paper's sweeps") {
    assert(Fig3TwoItemWelfare.budgetGrid(uniform = true).map(_.toSeq) ==
      Seq(Seq(10, 10), Seq(20, 20), Seq(30, 30), Seq(40, 40), Seq(50, 50)))
    assert(Fig3TwoItemWelfare.budgetGrid(uniform = false).map(_.toSeq) ==
      Seq(Seq(70, 30), Seq(70, 50), Seq(70, 70), Seq(70, 90), Seq(70, 110)))
    assert(Fig5MultiItemWelfare.totalGrid == Seq(500, 600, 700, 800, 900, 1000))
  }

  // Pads each column to its widest cell and prints Doubles to one decimal.
  test("printTable renders without error") {
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out) {
      Experiments.printTable("smoke", Seq("a", "bb"), Seq(Seq[Any](1, 2.5), Seq("xyz", 3.0), Seq(-0.04, 12345.67)))
    }
    assert(out.toString.split("\n", -1).toSeq == Seq(
      "",
      "== smoke ==",
      "| a    | bb      |",
      "|------|---------|",
      "| 1    | 2.5     |",
      "| xyz  | 3.0     |",
      "| -0.0 | 12345.7 |",
      "",
    ))
  }

  test("concurrent first requests for a network share one build") {
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val futures = (0 until 4).map { _ =>
        pool.submit(new java.util.concurrent.Callable[SocialGraph] {
          def call(): SocialGraph = { start.await(); Experiments.network("Flixster") }
        })
      }
      start.countDown()
      val graphs = futures.map(_.get())
      assert(graphs.forall(_ eq graphs.head))
    } finally pool.shutdown()
  }

  test("network cache returns the same instance") {
    val a = Experiments.network("Flixster")
    val b = Experiments.network("Flixster")
    assert(a eq b)
  }
}
