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
    val step = Experiments.allocations(spark, g, cells)((_, alloc) => alloc)
    assert(step.map(_._1) == cells.map { case (a, cfg, b) => Experiments.allocate(a, spark, g, cfg, b) })
    val byKey = cells.zip(step.map(_._1)).groupMap { case ((a, cfg, b), _) => Experiments.allocationKey(a, cfg, b) }(_._2)
    assert(byKey.size < cells.size)
    for (allocs <- byKey.values) assert(allocs.forall(_ eq allocs.head))
    assert(step.forall { case (_, ms) => ms.calls.length == 1 && ms.median >= 0 })
  }

  test("an allocation timed over several calls keeps the first allocation and the median of the calls") {
    val twice = cells.take(3) ++ cells.take(3)
    val step = Experiments.allocations(spark, g, twice, calls = 3)((_, alloc) => alloc)
    assert(step.map(_._1) == twice.map { case (a, cfg, b) => Experiments.allocate(a, spark, g, cfg, b) })
    assert(step.forall { case (_, ms) => ms.calls.length == 3 && ms.calls.min <= ms.median && ms.median <= ms.calls.max })
    assert(step.drop(3).zip(step).forall { case ((a, x), (b, y)) => (a eq b) && (x eq y) })
    intercept[IllegalArgumentException](Experiments.allocations(spark, g, cells, calls = 0)((_, _) => ()))
  }

  test("a runtime cell shows the median call and, over several calls, their range") {
    assert(Experiments.Millis(Seq(40, 10, 30, 20, 50)).median == 30)
    assert(Experiments.Millis(Seq(40, 10, 30, 20, 50)).toString == "30 ms (10-50)")
    assert(Experiments.Millis(Seq(4, 1)).median == 4)
    assert(Experiments.Millis(Seq(7)).toString == "7 ms")
    intercept[IllegalArgumentException](Experiments.Millis(Nil))
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

  /** An estimate with per-run welfare `ws`. With two runs, greedyWM's
    * paired z against it is the sum of the two differences over their
    * distance.
    */
  private def est(ws: Double*): Welfare.Estimate = Welfare.Estimate(ws.toArray, Array.fill(ws.length)(0L))
  private val noGates: Experiments.WelfareGate = (_, _, _) => Nil

  test("a welfare row prints mean +- stderr, with greedyWM's paired z against each baseline") {
    val t = Experiments.welfareTable("t", "total budget", Experiments.multiItemAlgos,
      Seq(("500", Configs.config7(3), Seq(est(100, 100), est(90, 91), est(89, 92)))), noGates)
    assert(t.headers == "total budget" +: Experiments.multiItemAlgos)
    assert(t.rows == Seq(Seq("500", "100.0 +- 0.0", "90.5 +- 0.5 (z 19.0)", "90.5 +- 1.5 (z 6.3)")))
    assert(t.failed.isEmpty)
  }

  test("welfare gates: greedyWM within 0.9 of the best baseline, no baseline above it by more than 3 paired standard errors") {
    val cfg = Configs.config7(3)
    val t = Experiments.welfareTable("t", "total budget", Experiments.multiItemAlgos, Seq(
      // z -3.1 against item-disj, -2.9 against bundle-disj
      ("a", cfg, Seq(est(100, 100), est(101.05, 102.05), est(100.95, 101.95))),
      // item-disj's mean 60 is above 50 / 0.9, at z -1/6
      ("b", cfg, Seq(est(50, 50), est(0, 120), est(0, 0))),
      ("c", cfg, Seq(est(100, 100), est(90, 91), est(89, 92)))), noGates)
    assert(t.failed == Seq(
      "total budget a: item-disj beats greedyWM by 3.10 paired standard errors",
      "total budget b: greedyWM 50.0 far below best baseline 60.0"))
  }

  test("Fig 3's own gate: item-disj below half of greedyWM under Configuration 2 at 70/70 only") {
    def failed(cfg: Configs.Config, label: String, itemDisj: Double): Seq[String] = {
      val ests = Seq(est(100, 100), est(95, 96), est(95, 96), est(itemDisj, itemDisj + 1), est(100, 100))
      Experiments.welfareTable("t", "budgets b1/b2", Experiments.twoItemAlgos,
        Seq((label, cfg, ests)), Fig3TwoItemWelfare.itemDisjCollapse).failed
    }
    assert(failed(Configs.config2, "70/70", 60) == Seq("70/70: item-disj 60.5 vs greedyWM 100.0"))
    assert(failed(Configs.config2, "70/70", 40).isEmpty)
    assert(failed(Configs.config2, "70/90", 60).isEmpty)
    assert(failed(Configs.config4, "70/70", 60).isEmpty)
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
