package repro.exec

import java.util.SplittableRandom

import scala.reflect.ClassTag

import org.apache.spark.SparkException
import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, SparkSpec}
import repro.comic.ComicBaselines.{RRCimSampler, RRSimSampler}
import repro.core.Configs
import repro.epic.Welfare
import repro.graph.GraphGen
import repro.im.{CountingSampler, ICRRSampler, RRSampler, RRSets}

/** Partition invariance of the seeded batches behind RR sampling and
  * welfare estimation, on both paths of [[SeededBatch]]: in process (what
  * `run` takes on the tests' local master) and as Spark jobs (`onSpark`,
  * what a cluster master runs). Every batch equals a serial loop over the
  * same ids, however it is split, and a batch split at any id concatenates
  * to the whole. Local masters never serialize a payload, so the `onSpark`
  * cases are what checks that each payload still ships to a cluster.
  */
class SeededBatchSpec extends AnyFunSuite with SparkSpec with PropHelpers {

  private lazy val g = GraphGen.powerLawDirected("batch", 300, 2400, seed = 21)
  private lazy val sampler = new ICRRSampler(g)
  private lazy val cfg = Configs.config7(3)
  private lazy val alloc = Map(0 -> 7, 5 -> 1, 9 -> 6, 17 -> 2)
  private lazy val gap = Configs.config1.gap
  private lazy val samplers: Seq[RRSampler] =
    Seq(sampler, new RRSimSampler(g, Array(0, 5, 9), gap), new RRCimSampler(g, Array(17, 2), gap))

  private def serialRR(s: RRSampler, seed: Long, ids: Range): Seq[Seq[Int]] =
    ids.map(i => s.sample(new SplittableRandom(RRSets.mix(seed, i.toLong))).toSeq)

  private lazy val worldPayload = (g, alloc, cfg.model)

  private def serialWorlds(seed: Long, runs: Int): Seq[(Double, Long)] =
    (0 until runs).map(r => Welfare.world(worldPayload, new SplittableRandom(RRSets.mix(seed, r.toLong))))

  /** A batch on one of the two paths: `onSpark`, or `run` on this local master. */
  private def batch[P: ClassTag, A: ClassTag, R](onSpark: Boolean, payload: P, seed: Long)(
      sample: (P, SplittableRandom) => A)(body: ((Long, Long) => Array[A]) => R): R =
    if (onSpark) SeededBatch.onSpark(spark, payload, seed)(sample)(body)
    else {
      assert(spark.sparkContext.isLocal)
      SeededBatch.run(spark, payload, seed)(sample)(body)
    }
  private val paths = Seq("in process" -> false, "on Spark" -> true)

  // On four task slots (the benchmark's local[4]) these counts run as 1, 3
  // and 16 partitions or chunks.
  private val counts = Seq(1, 3, 40)

  test("the partition policy gives 1, 3 and 16 partitions on four slots") {
    assert(counts.map(c => SeededBatch.slices(c.toLong, 4)) == Seq(1, 3, 16))
    assert(SeededBatch.slices(1000, 1) == 4)
  }

  test("RR batches equal a serial loop over the same ids") {
    forSeeds(3) { seed =>
      for ((path, onSpark) <- paths; s <- samplers; n <- counts; offset <- Seq(0L, 7L)) {
        val rr = batch(onSpark, s, seed)(_.sample(_))(draw => draw(offset, n.toLong))
        assert(rr.map(_.toSeq).toSeq == serialRR(s, seed, offset.toInt until offset.toInt + n),
          s"$path ${s.getClass.getSimpleName} n=$n offset=$offset")
      }
      for (n <- counts; offset <- Seq(0L, 7L))
        assert(RRSets.generate(spark, sampler, n.toLong, seed, offset).map(_.toSeq).toSeq ==
          serialRR(sampler, seed, offset.toInt until offset.toInt + n), s"generate n=$n offset=$offset")
    }
  }

  test("welfare batches equal a serial loop over the same worlds") {
    forSeeds(3) { seed =>
      for (n <- counts) {
        val est = Welfare.estimate(spark, g, alloc, cfg.model, n, seed)
        val serial = serialWorlds(seed, n)
        assert(est.perRunWelfare.toSeq == serial.map(_._1), s"n=$n")
        assert(est.perRunAdoptions.toSeq == serial.map(_._2), s"n=$n")
        for ((path, onSpark) <- paths)
          assert(batch(onSpark, worldPayload, seed)(Welfare.world)(_(0, n.toLong)).toSeq == serial, s"$path n=$n")
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
      for ((path, onSpark) <- paths) {
        val rr = batch(onSpark, sampler, seed)(_.sample(_).toSeq)(splits)
        assert(rr == serialRR(sampler, seed, 0 until n), path)
        val worlds = batch(onSpark, worldPayload, seed)(Welfare.world)(splits)
        assert(worlds == serialWorlds(seed, n), path)
      }
    }
  }

  test("a welfare estimate needs at least one run") {
    for (runs <- Seq(0, -1))
      intercept[IllegalArgumentException](Welfare.estimate(spark, g, alloc, cfg.model, runs))
  }

  /** Serializations and draws of a payload over one batch of three draws. */
  private def countWrites(onSpark: Boolean): (Int, Long) = {
    CountingSampler.writes.set(0); CountingSampler.draws.set(0)
    val rr = batch(onSpark, new CountingSampler(sampler), 5L)(_.sample(_))(draw => draw(0, 10) ++ draw(10, 25) ++ draw(35, 5))
    assert(rr.map(_.toSeq).toSeq == serialRR(sampler, 5L, 0 until 40))
    (CountingSampler.writes.get, CountingSampler.draws.get)
  }

  test("on Spark, one run serializes its payload once over several draws") {
    assert(countWrites(onSpark = true) == (1, 40L))
  }

  test("on Spark, a failed batch destroys its broadcast") {
    var handle: Option[(Long, Long) => Array[Array[Int]]] = None
    intercept[SparkException] {
      batch(onSpark = true, new FailingSampler, 1L)(_.sample(_)) { draw => handle = Some(draw); draw(0, 4) }
    }
    // a destroyed broadcast cannot ship with a later batch
    val e = intercept[SparkException](handle.get(0, 4))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(_.getMessage.contains("destroyed")), e)
  }

  test("in process, the payload is never serialized") {
    assert(countWrites(onSpark = false) == (0, 40L))
  }

  test("in process, a failing sampler's own exception reaches the caller") {
    val e = intercept[RuntimeException](batch(onSpark = false, new FailingSampler, 1L)(_.sample(_))(_(0, 40)))
    assert(e.getClass == classOf[RuntimeException] && e.getMessage == "sampler failed", e)
    // the pool still runs the next batch
    assert(RRSets.generate(spark, sampler, 40, 3L, 0).map(_.toSeq).toSeq == serialRR(sampler, 3L, 0 until 40))
  }

  test("forEach rethrows the first failing task's own exception once every task has stopped") {
    for (parallelism <- Seq(1, 4)) withClue(s"parallelism=$parallelism: ") {
      val first = new IllegalStateException("task 1 failed")
      val finished = new java.util.concurrent.atomic.AtomicInteger
      val e = intercept[IllegalStateException] {
        SeededBatch.forEach(parallelism, 6) { t =>
          if (t == 1) throw first
          if (t == 4) { Thread.sleep(20); throw new IllegalStateException("task 4 failed") }
          Thread.sleep(50)
          finished.incrementAndGet()
        }
      }
      assert(e eq first)
      // in order on the calling thread, the tasks after the failure never start
      assert(finished.get == (if (parallelism == 1) 1 else 4))
    }
  }

  test("a draw of more ids than an array holds throws before any sample runs") {
    for ((path, onSpark) <- paths; count <- Seq(1L << 31, 1L << 32)) withClue(s"$path count=$count") {
      batch(onSpark, new FailingSampler, 1L)(_.sample(_))(draw => intercept[IllegalArgumentException](draw(0, count)))
    }
    intercept[IllegalArgumentException](RRSets.generate(spark, new FailingSampler, 1L << 31, 1L, 0))
  }

  test("in process, a draw after the batch closes throws") {
    val draw = batch(onSpark = false, sampler, 1L)(_.sample(_))(identity)
    intercept[IllegalStateException](draw(0, 4))
    intercept[IllegalStateException](draw(0, 0))
  }
}

final class FailingSampler extends RRSampler {
  def sample(rng: SplittableRandom): Array[Int] = sys.error("sampler failed")
}
