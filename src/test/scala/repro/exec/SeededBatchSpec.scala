package repro.exec

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, SparkSpec}
import repro.core.Configs
import repro.epic.{EpicSimulator, Welfare}
import repro.graph.{GraphGen, SocialGraph}
import repro.im.{ICRRSampler, RRSets}
import repro.items.UtilityModel

/** Partition invariance of the seeded batches behind RR sampling and
  * welfare estimation: every batch equals a serial loop over the same ids,
  * however Spark splits it, and a batch split at any id concatenates to
  * the whole.
  */
class SeededBatchSpec extends AnyFunSuite with SparkSpec with PropHelpers {

  private lazy val g = GraphGen.powerLawDirected("batch", 300, 2400, seed = 21)
  private lazy val sampler = new ICRRSampler(g)
  private lazy val cfg = Configs.config7(3)
  private lazy val alloc = Map(0 -> 7, 5 -> 1, 9 -> 6, 17 -> 2)

  private def serialRR(seed: Long, ids: Range): Seq[Seq[Int]] =
    ids.map(i => sampler.sample(new SplittableRandom(RRSets.mix(seed, i.toLong))).toSeq)

  private lazy val worldPayload = (g, alloc, cfg.model)

  private def serialWorlds(seed: Long, runs: Int): Seq[(Double, Long)] =
    (0 until runs).map(r => SeededBatchSpec.world(worldPayload, new SplittableRandom(RRSets.mix(seed, r.toLong))))

  // On four task slots (the benchmark's local[4]) these counts run as 1, 3
  // and 16 partitions.
  private val counts = Seq(1, 3, 40)

  test("the partition policy gives 1, 3 and 16 partitions on four slots") {
    assert(counts.map(c => SeededBatch.slices(c.toLong, 4)) == Seq(1, 3, 16))
    assert(SeededBatch.slices(1000, 1) == 4)
  }

  test("RR batches equal a serial loop over the same ids") {
    forSeeds(3) { seed =>
      for (n <- counts; offset <- Seq(0L, 7L)) {
        val batch = RRSets.generate(spark, sampler, n.toLong, seed, offset)
        assert(batch.map(_.toSeq).toSeq == serialRR(seed, offset.toInt until offset.toInt + n), s"n=$n offset=$offset")
      }
    }
  }

  test("welfare batches equal a serial loop over the same worlds") {
    forSeeds(3) { seed =>
      for (n <- counts) {
        val est = Welfare.estimate(spark, g, alloc, cfg.model, n, seed)
        val serial = serialWorlds(seed, n)
        assert(est.perRunWelfare.toSeq == serial.map(_._1), s"n=$n")
        assert(est.perRunAdoptions.toSeq == serial.map(_._2), s"n=$n")
      }
    }
  }

  test("a batch split at any id concatenates to the whole batch") {
    val n = counts.last
    def splits[A](draw: (Long, Long) => Array[A]): Seq[A] = {
      val whole = draw(0, n).toSeq
      for (a <- Seq(0, 1, 3, 17, n)) assert(draw(0, a).toSeq ++ draw(a, n - a) == whole, s"a=$a")
      whole
    }
    forSeeds(2) { seed =>
      val rr = SeededBatch.run(spark, sampler, seed)(_.sample(_).toSeq)(splits)
      assert(rr == serialRR(seed, 0 until n))
      val worlds = SeededBatch.run(spark, worldPayload, seed)(SeededBatchSpec.world)(splits)
      assert(worlds == serialWorlds(seed, n))
    }
  }

  test("a welfare estimate needs at least one run") {
    for (runs <- Seq(0, -1))
      intercept[IllegalArgumentException](Welfare.estimate(spark, g, alloc, cfg.model, runs))
  }
}

object SeededBatchSpec {
  /** One welfare world, as `Welfare.estimate` plays it. */
  def world(p: (SocialGraph, Map[Int, Int], UtilityModel), rng: SplittableRandom): (Double, Long) = {
    val (g, alloc, model) = p
    val util = model.sampleUtilityTable(rng)
    val adoption = EpicSimulator.diffuse(g, alloc, util, rng)
    (EpicSimulator.welfare(util, adoption), EpicSimulator.adoptionCount(adoption))
  }
}
