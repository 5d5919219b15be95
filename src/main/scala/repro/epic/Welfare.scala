package repro.epic

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.exec.SeededBatch
import repro.graph.SocialGraph
import repro.items.UtilityModel

/** Monte-Carlo estimate of expected social welfare `rho(S)` and expected
  * adoption count `alpha(S)` of an allocation (§3.3, §4.1).
  *
  * Each run is an independent possible world: run `r` samples a noise
  * world (utility table) and an edge world from `mix(seed, r)` and plays
  * the deterministic EPIC diffusion. Runs are embarrassingly parallel:
  * they are one [[SeededBatch]] over the graph, allocation and utility
  * model.
  */
object Welfare {

  final case class Estimate(perRunWelfare: Array[Double], perRunAdoptions: Array[Long]) {
    def runs: Int = perRunWelfare.length
    def welfare: Double = perRunWelfare.sum / runs
    def adoptions: Double = perRunAdoptions.map(_.toDouble).sum / runs

    /** Standard error of [[welfare]]: the runs' sample standard deviation
      * (denominator `runs - 1`) over `sqrt(runs)`; 0 for a single run.
      */
    def stderr: Double =
      if (runs < 2) 0.0
      else {
        val mean = welfare
        math.sqrt(perRunWelfare.map(w => (w - mean) * (w - mean)).sum / (runs - 1) / runs)
      }

    /** Paired z of this welfare over `other`'s, estimated on the same world
      * ids: the mean of the per-run differences over its [[stderr]]; 0 when
      * that mean is 0, and infinite when the runs differ by a constant.
      */
    def pairedZ(other: Estimate): Double = {
      require(other.runs == runs, s"paired estimates need equal runs, got $runs and ${other.runs}")
      val diff = Estimate(perRunWelfare.zip(other.perRunWelfare).map { case (a, b) => a - b }, perRunAdoptions)
      if (diff.welfare == 0) 0.0 else diff.welfare / diff.stderr
    }
  }

  def estimate(spark: SparkSession, g: SocialGraph, alloc: Map[Int, Int],
               model: UtilityModel, runs: Int, seed: Long = 42): Estimate = {
    require(runs >= 1, s"welfare needs at least one run, got $runs")
    val items = (1 << model.k) - 1
    for ((v, mask) <- alloc) {
      require(v >= 0 && v < g.n, s"allocated node $v is not in [0, ${g.n})")
      require((mask & ~items) == 0, s"node $v is allocated mask $mask, which names an item beyond the model's ${model.k}")
    }
    val rows = SeededBatch.run(spark, (g, alloc, model), seed)(world)(draw => draw(0, runs))
    Estimate(rows.map(_._1), rows.map(_._2))
  }

  /** One run: a noise world, then an edge world and the EPIC diffusion
    * from the same `rng`; its welfare and adoption count.
    */
  private[repro] def world(p: (SocialGraph, Map[Int, Int], UtilityModel), rng: SplittableRandom): (Double, Long) = {
    val (g, alloc, model) = p
    val util = model.sampleUtilityTable(rng)
    val adoption = EpicSimulator.diffuse(g, alloc, util, model.supermodular, rng)
    (EpicSimulator.welfare(util, adoption), EpicSimulator.adoptionCount(adoption))
  }
}
