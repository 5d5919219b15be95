package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.Golden.{digest, hubs}
import repro.{SparkSpec, TestInputs}
import repro.comic.ComicBaselines
import repro.graph.GraphGen
import repro.im.PRIMM

/** Golden outputs of the allocation algorithms: PRIMM's seeds, RR-set count
  * and spread estimates, and the greedyWM, item-disj, bundle-disj, RR-SIM+
  * and RR-CIM allocations, each hashed on fixed seeds over small generated
  * graphs.
  *
  * RR sets are seeded per sample id, so these outputs do not depend on how
  * Spark partitions the work. A change to RR sampling, node selection or
  * PRIMM's round logic that is meant to be output-preserving must leave the
  * hashes unchanged.
  */
class GoldenAllocationSpec extends AnyFunSuite with SparkSpec {

  private lazy val directed = GraphGen.powerLawDirected("golden-alloc-d", 2000, 16000, seed = 5)
  private lazy val undirected = GraphGen.powerLawUndirected("golden-alloc-u", 1500, 6000, seed = 6)

  test("PRIMM with several budgets") {
    val h = digest(_.result(PRIMM.run(spark, directed, Seq(40, 20, 5), seed = 3)))
    assert(h == "f840ba2d6710b1bc")
  }

  test("PRIMM where a budget switch evaluates the previous selection on a grown collection") {
    // Selecting anew after these switches would change rrCount and seeds.
    val g = TestInputs.uniformDirected("golden-alloc-uni", 1000, 5000, seed = 3)
    val h = digest(_.result(PRIMM.run(spark, g, Seq(60, 50, 40, 30, 20, 10), seed = 3)))
    assert(h == "13d40e1a4a660065")
  }

  test("IMM with forbidden nodes") {
    val h = digest(_.result(PRIMM.imm(spark, directed, 10, seed = 4, forbidden = hubs(directed, 30).toSet)))
    assert(h == "a87608d9582ae1f1")
  }

  test("IMM capped by maxRR") {
    val h = digest(_.result(PRIMM.imm(spark, directed, 10, seed = 5, maxRR = 500)))
    assert(h == "94ca5d50d03d9243")
  }

  test("greedyWM and item-disj allocations") {
    val gw = digest(_.alloc(GreedyWM.allocate(spark, directed, Array(30, 10, 20, 10), seed = 6).alloc))
    val id = digest(_.alloc(Baselines.itemDisj(spark, directed, Array(10, 20, 5), seed = 7)))
    assert((gw, id) == (("40d76139c36a8895", "25b3621588d5de93")))
  }

  test("bundle-disj allocations") {
    val hs = Seq(
      (Configs.config1, Array(7, 3)),
      (Configs.config3, Array(6, 4)),
      (Configs.config7(3), Array(8, 5, 3)),
    ).map { case (cfg, b) => digest(_.alloc(Baselines.bundleDisj(spark, directed, b, cfg.detUtil, seed = 8))) }
    assert(hs == Seq("216baa78ddf7b358", "75cde1d1f51731f8", "1ee9950e2de203d0"))
  }

  test("RR-SIM+ and RR-CIM allocations") {
    val hs = for (cfg <- Seq(Configs.config1, Configs.config3)) yield {
      val sim = ComicBaselines.rrSimPlus(spark, undirected, 10, 8, cfg.gap, seed = 9, maxRR = 3000)
      val cim = ComicBaselines.rrCim(spark, undirected, 10, 8, cfg.gap, seed = 9, maxRR = 3000)
      digest { d => d.ints(sim._1); d.ints(sim._2); d.ints(cim._1); d.ints(cim._2) }
    }
    assert(hs == Seq("48e749ce1f82fcb4", "2b5803e7a6f5615c"))
  }
}
