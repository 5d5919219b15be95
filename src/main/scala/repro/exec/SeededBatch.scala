package repro.exec

import java.util.SplittableRandom

import scala.reflect.ClassTag

import org.apache.spark.sql.SparkSession

import repro.im.RRSets

/** The one place Spark runs Monte-Carlo samples, IMM/PRIMM's RR sets and
  * the possible worlds of a welfare estimate alike: a batch of independent
  * samples, each seeded by its own id.
  */
object SeededBatch {

  /** Broadcast `payload` once and run `body` with `draw(offset, count)`,
    * which maps the ids `[offset, offset+count)` on Spark, id `i` yielding
    * `sample(payload, new SplittableRandom(RRSets.mix(seed, i)))`, and
    * returns the results in id order. Each result depends only on its id,
    * never on the partitioning; `count <= 0` draws nothing. The broadcast
    * is destroyed when `body` returns or throws.
    */
  def run[P: ClassTag, A: ClassTag, R](spark: SparkSession, payload: P, seed: Long)(
      sample: (P, SplittableRandom) => A)(body: ((Long, Long) => Array[A]) => R): R = {
    val sc = spark.sparkContext
    val b = sc.broadcast(payload)
    def draw(offset: Long, count: Long): Array[A] =
      if (count <= 0) Array.empty
      else sc.range(offset, offset + count, numSlices = slices(count, sc.defaultParallelism))
        .map(i => sample(b.value, new SplittableRandom(RRSets.mix(seed, i)))).collect()
    try body(draw) finally b.destroy()
  }

  /** Partitions of `count >= 1` ids on `parallelism` task slots: four per slot, at most `count`.
    * Four balance uneven samples better than two: a Fig 5 cell's welfare ran ~6% faster on local[4].
    */
  private[exec] def slices(count: Long, parallelism: Int): Int = math.min(count, parallelism * 4L).toInt
}
