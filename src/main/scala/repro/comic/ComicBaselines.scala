package repro.comic

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.epic.EpicSimulator.hash01
import repro.graph.{SocialGraph, Traversal}
import repro.im.{PRIMM, RRSampler}

/** RR-SIM+ and RR-CIM baselines [Lu et al., VLDB'15], reimplemented on the
  * generic PRIMM/IMM engine with Com-IC flavoured RR samplers.
  *
  * Substitution note (DESIGN.md §5.3): when a reverse step asks whether an
  * intermediate node would adopt, the complementary item's reach is
  * computed by one forward simulation from its fixed seed set in the same
  * hashed possible world — without the full second-order reconsideration
  * echo of the original algorithms. This keeps the two behaviours the
  * paper reports: seeds collapse onto top spreaders under strong
  * complementarity, and each sample pays an extra forward-simulation
  * factor (hence the large runtime gap to greedyWM).
  */
object ComicBaselines {

  private val SaltEdge = 11L
  private val SaltA = 13L
  private val SaltB = 17L

  /** Forward spread of one item over live edges in hashed world `w`:
    * start from `seeds`, a node adopts iff its hashed threshold passes
    * `qSelf` (or `qBoost` when `boosted(u)` holds); only adopters
    * propagate. Returns the adopter set.
    */
  private[comic] def forwardSpread(g: SocialGraph, w: Long, seeds: Array[Int],
                                   qSelf: Double, qBoost: Double,
                                   boosted: Int => Boolean,
                                   salt: Long): Array[Boolean] = {
    val adopted = new Array[Boolean](g.n)
    val informed = new Array[Boolean](g.n)
    var frontier = scala.collection.mutable.ArrayBuffer.empty[Int]
    def adopts(u: Int): Boolean =
      hash01(w, u.toLong, salt) < (if (boosted(u)) qBoost else qSelf)
    seeds.foreach { v =>
      if (!informed(v)) {
        informed(v) = true
        if (adopts(v)) { adopted(v) = true; frontier += v }
      }
    }
    while (frontier.nonEmpty) {
      val next = scala.collection.mutable.ArrayBuffer.empty[Int]
      for (u <- frontier) {
        var e = g.fwdOff(u)
        while (e < g.fwdOff(u + 1)) {
          val v = g.fwdDst(e)
          if (!informed(v) && hash01(w, SaltEdge, u.toLong * g.n + v) < g.fwdProb(e)) {
            informed(v) = true
            if (adopts(v)) { adopted(v) = true; next += v }
          }
          e += 1
        }
      }
      frontier = next
    }
    adopted
  }

  /** Reverse BFS from `root` over live edges, passing only through nodes
    * whose adoption predicate holds. Returns empty when the root itself
    * fails the predicate.
    */
  private[comic] def reverseAdoptingSet(g: SocialGraph, w: Long, root: Int,
                                        adopts: Int => Boolean): Array[Int] =
    if (!adopts(root)) Array.empty
    else Traversal.reverseReach(g, root) { (e, v) =>
      val u = g.revSrc(e)
      hash01(w, SaltEdge, u.toLong * g.n + v) < g.revProb(e) && adopts(u)
    }

  /** RR sampler for item A given fixed seeds of the complement B:
    * forward-simulate B's adopters in the world, then reverse-collect the
    * nodes from which a seeded A would reach (and be adopted by) the root.
    */
  final class RRSimSampler(g: SocialGraph, seedsB: Array[Int], gap: Gap) extends RRSampler {
    private val isSeedB = Array.tabulate(g.n)(seedsB.toSet)
    def sample(rng: SplittableRandom): Array[Int] = {
      val w = rng.nextLong()
      val root = rng.nextInt(g.n)
      // B's spread, with its own seeds boosted (the mutual-complement
      // fixed point: A seeds end up co-located with B's — see DESIGN.md);
      // B's adopters then boost A along the reverse walk.
      val bAdopters = forwardSpread(g, w, seedsB, gap.qB0, gap.qBA, u => isSeedB(u), SaltB)
      def adoptsA(u: Int): Boolean =
        hash01(w, u.toLong, SaltA) < (if (bAdopters(u)) gap.qAB else gap.qA0)
      reverseAdoptingSet(g, w, root, adoptsA)
    }
  }

  /** RR sampler for RR-CIM: choose B seeds to maximise A adoptions, with
    * A's potential reach computed optimistically (boosted GAP) from its
    * fixed seed set.
    */
  final class RRCimSampler(g: SocialGraph, seedsA: Array[Int], gap: Gap) extends RRSampler {
    def sample(rng: SplittableRandom): Array[Int] = {
      val w = rng.nextLong()
      val root = rng.nextInt(g.n)
      val aPotential = forwardSpread(g, w, seedsA, gap.qAB, gap.qAB, _ => true, SaltA)
      // Root must be A-reachable and adopt A once boosted by B.
      if (!aPotential(root)) return Array.empty
      if (hash01(w, root.toLong, SaltA) >= gap.qAB) return Array.empty
      def adoptsB(u: Int): Boolean = hash01(w, u.toLong, SaltB) < gap.qBA
      reverseAdoptingSet(g, w, root, adoptsB)
    }
  }

  /** RR-SIM+: seeds of B via IMM, then seeds of A maximising A-adoption
    * given B. Returns (seedsA, seedsB).
    */
  def rrSimPlus(spark: SparkSession, g: SocialGraph, budgetA: Int, budgetB: Int,
                gap: Gap, eps: Double = 0.5, ell: Double = 1.0,
                seed: Long = 7, maxRR: Int = 200000): (Array[Int], Array[Int]) = {
    val seedsB = PRIMM.imm(spark, g, budgetB, eps, ell, seed).seeds
    val sampler = new RRSimSampler(g, seedsB, gap)
    val seedsA = PRIMM.imm(spark, g, budgetA, eps, ell, seed + 1, Some(sampler), maxRR = maxRR).seeds
    (seedsA, seedsB)
  }

  /** RR-CIM: seeds of A via IMM, then seeds of B maximising A-adoption.
    * Returns (seedsA, seedsB).
    */
  def rrCim(spark: SparkSession, g: SocialGraph, budgetA: Int, budgetB: Int,
            gap: Gap, eps: Double = 0.5, ell: Double = 1.0,
            seed: Long = 7, maxRR: Int = 200000): (Array[Int], Array[Int]) = {
    val seedsA = PRIMM.imm(spark, g, budgetA, eps, ell, seed).seeds
    val sampler = new RRCimSampler(g, seedsA, gap)
    val seedsB = PRIMM.imm(spark, g, budgetB, eps, ell, seed + 1, Some(sampler), maxRR = maxRR).seeds
    (seedsA, seedsB)
  }
}
