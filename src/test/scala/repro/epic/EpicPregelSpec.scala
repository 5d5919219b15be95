package repro.epic

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, SparkSpec, TestInputs}

class EpicPregelSpec extends AnyFunSuite with SparkSpec with PropHelpers {
  import Example1._

  test("Pregel agrees with the local simulator on Example 1 (greedy allocation)") {
    val local = HashedWorld.diffuseFixedWorld(g, greedyAlloc, util, worldSeed = 5)
    val pregel = EpicPregel.diffuseFixedWorld(spark, g, greedyAlloc, util, worldSeed = 5)
    assert(pregel.toSeq == local.toSeq)
    assert(EpicSimulator.welfare(util, pregel) == 15.0)
  }

  test("Pregel agrees with the local simulator on Example 1 (alternative allocation)") {
    val local = HashedWorld.diffuseFixedWorld(g, altAlloc, util, worldSeed = 5)
    val pregel = EpicPregel.diffuseFixedWorld(spark, g, altAlloc, util, worldSeed = 5)
    assert(pregel.toSeq == local.toSeq)
  }

  test("Pregel and local simulator agree node-for-node on random graphs and worlds") {
    forSeeds(6) { s =>
      val graph = TestInputs.uniformDirected("t", 80, 400, seed = s)
      val alloc = Map((s % 80).toInt -> 7, ((s / 3) % 80).toInt -> 5, ((s / 7) % 80).toInt -> 2)
      val local = HashedWorld.diffuseFixedWorld(graph, alloc, util, worldSeed = s)
      val pregel = EpicPregel.diffuseFixedWorld(spark, graph, alloc, util, worldSeed = s)
      assert(pregel.toSeq == local.toSeq, s"seed=$s")
    }
  }

  test("Pregel with empty allocation adopts nothing") {
    val pregel = EpicPregel.diffuseFixedWorld(spark, g, Map.empty, util, worldSeed = 1)
    assert(pregel.forall(_ == 0))
  }
}
