package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.core.Configs
import repro.graph.{GraphGen, SocialGraph}
import repro.jobs.{Fig3TwoItemWelfare, Fig5MultiItemWelfare}

class ExperimentsSpec extends AnyFunSuite with SparkSpec {

  private lazy val g = GraphGen.powerLawDirected("t", 250, 1800, seed = 51)

  test("every two-item algorithm produces a runnable allocation and welfare") {
    val cfg = Configs.config1
    val budgets = Array(4, 4)
    for (algo <- Experiments.twoItemAlgos) {
      val r = Experiments.run(algo, spark, g, cfg, budgets, runs = 4, seed = 2)
      assert(r.algo == algo && r.network == "t")
      assert(r.welfare >= -1e-9, s"$algo produced negative welfare ${r.welfare}")
      assert(r.millis >= 0)
    }
  }

  test("every multi-item algorithm runs on Config 7 with 3 items") {
    val cfg = Configs.config7(3)
    val budgets = Array(4, 3, 2)
    for (algo <- Experiments.multiItemAlgos) {
      val r = Experiments.run(algo, spark, g, cfg, budgets, runs = 4, seed = 3)
      assert(r.welfare > 0, s"$algo welfare should be positive under Config 7")
    }
  }

  test("greedyWM beats or matches item-disj under strong complementarity (Config 1)") {
    val cfg = Configs.config1
    val budgets = Array(6, 6)
    val gw = Experiments.run(Experiments.AlgoGreedyWM, spark, g, cfg, budgets, runs = 16, seed = 4)
    val id = Experiments.run(Experiments.AlgoItemDisj, spark, g, cfg, budgets, runs = 16, seed = 4)
    assert(gw.welfare >= id.welfare - 1e-9,
      s"greedyWM ${gw.welfare} < item-disj ${id.welfare}")
  }

  test("item-disj welfare is far below greedyWM when items are individually negative (Config 1)") {
    // Config 1: a singleton only goes positive when its shared noise draw
    // exceeds 1.3 (p ~ 0.1), so item-disj (disjoint seeds, no bundling)
    // collects a small fraction of greedyWM's welfare — the paper plots
    // it as ~0 next to greedyWM (Fig 3a).
    val cfg = Configs.config1
    val budgets = Array(6, 6)
    val id = Experiments.run(Experiments.AlgoItemDisj, spark, g, cfg, budgets, runs = 24, seed = 5)
    val gw = Experiments.run(Experiments.AlgoGreedyWM, spark, g, cfg, budgets, runs = 24, seed = 5)
    assert(id.welfare < 0.6 * gw.welfare,
      s"item-disj ${id.welfare} not far below greedyWM ${gw.welfare}")
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
