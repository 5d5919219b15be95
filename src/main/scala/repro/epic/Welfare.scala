package repro.epic

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.graph.SocialGraph
import repro.im.RRSets
import repro.items.UtilityModel

/** Monte-Carlo estimate of expected social welfare `rho(S)` and expected
  * adoption count `alpha(S)` of an allocation (§3.3, §4.1).
  *
  * Each run is an independent possible world: run `r` samples a noise
  * world (utility table) and an edge world from `mix(seed, r)` and plays
  * the deterministic EPIC diffusion. Runs are embarrassingly parallel, so
  * they are distributed over Spark with the graph, allocation and utility
  * model broadcast once.
  */
object Welfare {

  final case class Estimate(perRunWelfare: Array[Double], perRunAdoptions: Array[Long]) {
    def runs: Int = perRunWelfare.length
    def welfare: Double = perRunWelfare.sum / runs
    def adoptions: Double = perRunAdoptions.map(_.toDouble).sum / runs
  }

  def estimate(spark: SparkSession, g: SocialGraph, alloc: Map[Int, Int],
               model: UtilityModel, runs: Int, seed: Long = 42): Estimate = {
    val sc = spark.sparkContext
    val bG = sc.broadcast(g)
    val bAlloc = sc.broadcast(alloc)
    val bModel = sc.broadcast(model)
    val rows =
      try sc
        .parallelize(0 until runs, math.min(runs, sc.defaultParallelism * 2))
        .map { r =>
          val rng = new SplittableRandom(RRSets.mix(seed, r.toLong))
          val util = bModel.value.sampleUtilityTable(rng)
          val adoption = EpicSimulator.diffuse(bG.value, bAlloc.value, util, rng)
          (EpicSimulator.welfare(util, adoption), EpicSimulator.adoptionCount(adoption))
        }
        .collect()
      finally { bG.destroy(); bAlloc.destroy(); bModel.destroy() }
    Estimate(rows.map(_._1), rows.map(_._2))
  }
}
