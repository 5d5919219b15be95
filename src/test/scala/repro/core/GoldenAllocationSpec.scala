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
    assert(h == "d7fc5ef9032a04d7")
  }

  test("PRIMM where a budget switch evaluates the previous selection on a grown collection") {
    // Selecting anew after these switches would change rrCount and seeds.
    val g = TestInputs.uniformDirected("golden-alloc-uni", 1000, 5000, seed = 3)
    val h = digest(_.result(PRIMM.run(spark, g, Seq(60, 50, 40, 30, 20, 10), seed = 3)))
    assert(h == "711d11de2ba72362")
  }

  test("IMM with forbidden nodes") {
    val h = digest(_.result(PRIMM.imm(spark, directed, 10, seed = 4, forbidden = hubs(directed, 30).toSet)))
    assert(h == "196642a88aa13225")
  }

  test("IMM capped by maxRR") {
    val h = digest(_.result(PRIMM.imm(spark, directed, 10, seed = 5, maxRR = 500)))
    assert(h == "1a4ba39610d53061")
  }

  test("greedyWM and item-disj allocations") {
    val gw = digest(_.alloc(GreedyWM.allocate(spark, directed, Array(30, 10, 20, 10), seed = 6).alloc))
    val id = digest(_.alloc(Baselines.itemDisj(spark, directed, Array(10, 20, 5), seed = 7)))
    assert((gw, id) == (("2fc8b52ff3aa3d10", "1e6a7d90c3b1f38b")))
  }

  test("bundle-disj allocations") {
    val hs = Seq(
      (Configs.config1, Array(7, 3)),
      (Configs.config3, Array(6, 4)),
      (Configs.config7(3), Array(8, 5, 3)),
    ).map { case (cfg, b) => digest(_.alloc(Baselines.bundleDisj(spark, directed, b, cfg.detUtil, seed = 8))) }
    assert(hs == Seq("dd1a927332995518", "83b8046a3a3de3fd", "4cbfe38a6f8f22ab"))
  }

  test("RR-SIM+ and RR-CIM allocations") {
    val hs = for (cfg <- Seq(Configs.config1, Configs.config3)) yield {
      val sim = ComicBaselines.rrSimPlus(spark, undirected, 10, 8, cfg.gap, seed = 9, maxRR = 3000)
      val cim = ComicBaselines.rrCim(spark, undirected, 10, 8, cfg.gap, seed = 9, maxRR = 3000)
      digest { d => d.ints(sim._1); d.ints(sim._2); d.ints(cim._1); d.ints(cim._2) }
    }
    assert(hs == Seq("9d7082e606ed2e8d", "a67a8c3b155949e8"))
  }
}
