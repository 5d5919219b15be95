package repro

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.comic.ComicBaselines
import repro.comic.ComicBaselines.{RRCimSampler, RRSimSampler}
import repro.core.{Allocation, Configs}
import repro.epic.{EpicSimulator, Welfare}
import repro.exp.Experiments
import repro.graph.{GraphGen, SocialGraph}
import repro.im.{ICRRSampler, MaxCover, PRIMM, RRSampler, RRSets}
import repro.items.Adoption
import repro.jobs.Fig5MultiItemWelfare

/** Compile-only guard for the benchmark build (`perfbench/`), which
  * compiles the program's sources but is not built by `sbt Test/compile`.
  * Each line uses a program name the benchmark calls, with the argument
  * shapes it passes and the result types it reads, so a refactor that
  * would break the benchmark breaks this file's compilation first.
  * Nothing here runs.
  */
object BenchmarkApiGuard {

  private final class Sampler(inner: RRSampler) extends RRSampler {
    def sample(rng: SplittableRandom): Array[Int] = inner.sample(rng)
  }

  def shapes(spark: SparkSession, g: SocialGraph, seed: Long): Unit = {
    val graphs: Seq[SocialGraph] =
      Seq(GraphGen.twitterLite(seed), GraphGen.doubanMovieLite(seed), GraphGen.flixsterLite(seed))
    val probArcs: Int = g.fwdProb.length + g.revProb.length
    val budgets: Array[Int] = Fig5MultiItemWelfare.budgetsFor(7, 10, 1000)
    val cfg: Configs.Config = Fig5MultiItemWelfare.configFor(7, 10, budgets)
    val configs: Seq[Configs.Config] = Seq(Configs.config1, Configs.config7(10), Configs.config10(10))
    val two: Array[Int] = Configs.uniformTwoItem(50)

    val algos: Seq[String] = Experiments.multiItemAlgos ++ Seq(Experiments.AlgoGreedyWM,
      Experiments.AlgoItemDisj, Experiments.AlgoBundleDisj, Experiments.AlgoRRSimPlus, Experiments.AlgoRRCim)
    val alloc: Allocation.Alloc = Experiments.allocate(algos.head, spark, g, cfg, budgets, seed = seed)
    val maxRR: Int = Experiments.comicMaxRR

    val mixed: Long = RRSets.mix(seed, 1L)
    val primm: PRIMM.Result =
      PRIMM.run(spark, g, Seq(50), 0.5, 1.0, mixed, Some(new Sampler(new ICRRSampler(g))))
    val imm: PRIMM.Result =
      PRIMM.imm(spark, g, 50, 0.5, 1.0, seed, Some(new Sampler(new ICRRSampler(g))), maxRR = maxRR)
    val (seeds, rrCount, sigmaHat): (Array[Int], Int, Array[Double]) = (imm.seeds, primm.rrCount, primm.sigmaHat)
    val rr = RRSets.generate(spark, new ICRRSampler(g), rrCount.toLong, seed, 0L)
    val picked: Array[Int] = MaxCover.nodeSelection(rr.toIndexedSeq, 50, g.n).seeds

    val samplers: Seq[RRSampler] = Seq(new RRSimSampler(g, seeds, configs.head.gap),
      new RRCimSampler(g, picked, configs.head.gap))
    val sim: (Array[Int], Array[Int]) =
      ComicBaselines.rrSimPlus(spark, g, two(0), two(1), configs.head.gap, seed = seed, maxRR = 5000)
    val cim: (Array[Int], Array[Int]) =
      ComicBaselines.rrCim(spark, g, two(0), two(1), configs.head.gap, seed = seed, maxRR = 5000)

    val rng = new SplittableRandom(seed)
    val util: Array[Double] = cfg.model.sampleUtilityTable(rng)
    EpicSimulator.diffuse(g, alloc, util, rng)
    val adopted: Int = Adoption.adopt(util, (1 << cfg.model.k) - 1, 0)
    val est: Welfare.Estimate = Welfare.estimate(spark, g, alloc, cfg.model, 40, seed = seed)
    val perRun: Array[Double] = est.perRunWelfare
    val (welfare, adoptions): (Double, Double) = (est.welfare, est.adoptions)
    val items: Set[Int] = Allocation.seedsOfItem(Allocation.fromItemSeeds(Seq(sim._1, cim._2)), 0)

    println((graphs, probArcs, samplers, sigmaHat, adopted, perRun, welfare, adoptions, items))
  }
}
