package repro.im

import java.util.SplittableRandom

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

import repro.graph.{SocialGraph, Traversal}

/** A reverse-reachable set sampler. Implementations: plain IC (weighted
  * cascade) for IMM/PRIMM, and the Com-IC flavoured samplers used by the
  * RR-SIM+/RR-CIM baselines.
  */
trait RRSampler extends Serializable {
  /** Sample one RR set. `rng` is pre-seeded per sample id, so sampling is
    * deterministic and order-independent across Spark partitions.
    */
  def sample(rng: SplittableRandom): Array[Int]
}

/** Borgs et al. RR sets under the IC model: pick a uniform root `v`, then
  * reverse-BFS where each in-edge `(u,w)` is live independently with
  * probability `p(u,w)`.
  */
final class ICRRSampler(g: SocialGraph) extends RRSampler {
  def sample(rng: SplittableRandom): Array[Int] =
    Traversal.reverseReach(g, rng.nextInt(g.n))((e, _) => rng.nextDouble() < g.revProb(e))
}

/** Spark-parallel batch generation of RR sets with per-sample seeds. */
object RRSets {

  def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z ^ (z >>> 31)
  }

  /** Generate RR sets with global sample ids `[offset, offset+count)`. */
  def generate(spark: SparkSession, sampler: RRSampler, count: Long,
               seed: Long, offset: Long): Array[Array[Int]] =
    if (count <= 0) Array.empty
    else broadcasting(spark, sampler)(b => generate(spark, b, count, seed, offset))

  /** As above, with a sampler already broadcast, so that many calls can
    * share one broadcast (see [[broadcasting]]).
    */
  def generate(spark: SparkSession, sampler: Broadcast[RRSampler], count: Long,
               seed: Long, offset: Long): Array[Array[Int]] = {
    if (count <= 0) return Array.empty
    val sc = spark.sparkContext
    val parts = math.max(1, math.min(count, sc.defaultParallelism * 4L)).toInt
    sc.range(offset, offset + count, numSlices = parts)
      .map(i => sampler.value.sample(new SplittableRandom(mix(seed, i))))
      .collect()
  }

  /** Run `f` with `sampler` broadcast; the broadcast is destroyed when `f`
    * returns or throws.
    */
  def broadcasting[A](spark: SparkSession, sampler: RRSampler)(f: Broadcast[RRSampler] => A): A = {
    val b = spark.sparkContext.broadcast(sampler)
    try f(b) finally b.destroy()
  }
}
