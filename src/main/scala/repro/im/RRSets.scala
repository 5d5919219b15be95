package repro.im

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.exec.SeededBatch
import repro.graph.{SocialGraph, Traversal}

/** A reverse-reachable set sampler. Implementations: plain IC (weighted
  * cascade) for IMM/PRIMM, and the Com-IC flavoured samplers used by the
  * RR-SIM+/RR-CIM baselines.
  */
trait RRSampler extends Serializable {
  /** Sample one RR set from `rng`, which [[repro.exec.SeededBatch]] seeds per sample id. */
  def sample(rng: SplittableRandom): Array[Int]
}

/** Borgs et al. RR sets under the IC model: pick a uniform root `v`, then
  * reverse-BFS where each in-edge `(u,w)` is live independently with
  * probability `p(u,w)`.
  */
final class ICRRSampler(g: SocialGraph) extends RRSampler {
  def sample(rng: SplittableRandom): Array[Int] =
    Traversal.reverseCoinReach(g, rng.nextInt(g.n), rng)
}

/** Batch generation of RR sets with per-sample seeds, and the home of the
  * seed hashes (`mix` per sample id, `hash01` for hashed possible worlds).
  */
object RRSets {

  def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z ^ (z >>> 31)
  }

  /** splitmix64 finaliser — stateless uniform hash to [0,1). */
  def hash01(seed: Long, a: Long, b: Long): Double = {
    var z = seed ^ (a * 0x9E3779B97F4A7C15L) ^ (b * 0xC2B2AE3D27D4EB4FL)
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^= (z >>> 31)
    (z >>> 11).toDouble / (1L << 53).toDouble
  }

  /** Generate RR sets with global sample ids `[offset, offset+count)`. */
  def generate(spark: SparkSession, sampler: RRSampler, count: Long,
               seed: Long, offset: Long): Array[Array[Int]] =
    SeededBatch.run(spark, sampler, seed)(_.sample(_))(draw => draw(offset, count))
}
