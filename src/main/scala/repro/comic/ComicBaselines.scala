package repro.comic

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.exec.NodeMarks
import repro.graph.SocialGraph
import repro.im.{PRIMM, RRSampler}
import repro.im.RRSets.hash01

/** RR-SIM+ and RR-CIM baselines [Lu et al., VLDB'15], reimplemented on the
  * generic PRIMM/IMM engine with Com-IC flavoured RR samplers.
  *
  * Substitution note (DESIGN.md §5.3): when a reverse step asks whether an
  * intermediate node would adopt, the complementary item's adoption is
  * decided as one forward spread from its fixed seed set in the same hashed
  * possible world would decide it — without the full second-order
  * reconsideration echo of the original algorithms. This keeps the
  * behaviour the paper reports: seeds collapse onto top spreaders under
  * strong complementarity. Each such answer is one reverse reachability
  * query from the asked node ([[adoptsInSpread]]), not a spread over the
  * whole graph.
  */
object ComicBaselines {

  private val SaltEdge = 11L
  private val SaltA = 13L
  private val SaltB = 17L

  /** With explicit probabilities: is the edge `u -> v` of probability `p`
    * live in hashed world `w`?
    */
  private[comic] def edgeLive(g: SocialGraph, w: Long, u: Int, v: Int, p: Double): Boolean =
    hash01(w, SaltEdge, u.toLong * g.n + v) < p

  /** Whether `u` adopts an item spreading over live edges in hashed world
    * `w` from the seeds flagged in `isSeed`, where a seed or a node informed
    * by an adopter adopts iff its hashed threshold (salted `salt`) is below
    * `q(node)`, and only adopters inform. That is: `u` passes its own
    * threshold, and a seed reaches `u` over live edges through nodes that
    * pass theirs — a reverse query from `u` that stops at the first seed.
    */
  private[comic] def adoptsInSpread(g: SocialGraph, w: Long, isSeed: Array[Boolean],
                                    q: Int => Double, salt: Long)(u: Int): Boolean = {
    def passes(v: Int): Boolean = hash01(w, v.toLong, salt) < q(v)
    passes(u) && search(g, w, u, queryMarks, passes, isSeed) == null
  }

  /** Reverse BFS from `root` over live edges, passing only through nodes
    * whose adoption predicate holds. Returns empty when the root itself
    * fails the predicate.
    */
  private[comic] def reverseAdoptingSet(g: SocialGraph, w: Long, root: Int,
                                        adopts: Int => Boolean): Array[Int] =
    if (!adopts(root)) Array.empty
    else search(g, w, root, walkMarks, adopts, null)

  // Per-thread visited nodes of one search, which are also its queue: one
  // set for walks and one for queries, since RR-SIM+'s walk predicate asks
  // adoption queries.
  private val walkMarks = ThreadLocal.withInitial[NodeMarks](() => new NodeMarks)
  private val queryMarks = ThreadLocal.withInitial[NodeMarks](() => new NodeMarks)

  /** The reverse BFS of both, in this thread's `marks`: from `root`,
    * expanding node `v`, its live in-edges `e` are taken in reverse-CSR
    * order, and the tail `t` is added iff `!seen.has(t) && through(t)`,
    * tested in that order. Returns null once a visited node is flagged in
    * `stop`; otherwise the visited nodes, `root` first, for a walk (`stop`
    * null) and an empty array for a query. `through` may not start a search
    * in the same marks.
    *
    * Liveness in hashed world `w` reads nothing but `w` and the edge, so
    * the queries and the walk of one sample see the same live edges:
    *  - With explicit probabilities, each in-edge whose tail is not yet
    *    visited is live iff [[edgeLive]] holds. It is keyed by `(t, v)`, so a
    *    duplicate arc is one coin, live iff its hash lies below the larger
    *    of its probabilities. Only tests build explicit graphs.
    *  - Under weighted cascade the live in-edges are found by geometric skips,
    *    as `ICRRSampler.reach` finds them (SUBSIM: Guo, Wang, Wei and Chen,
    *    SIGMOD'20): with `wcProb(v) >= 1` every in-edge is live and nothing
    *    is drawn; otherwise `v`'s gap `j` (from 0), the number of dead
    *    in-edges before the next live one, is `floor(ln(1 - U) * wcSkip(v))`
    *    for `U = hash01(w, v, -1 - j)`, whose keys no threshold hash shares.
    *    Gaps count in-edges to visited tails, so liveness does not depend on
    *    the search's state, and each arc is its own coin: a duplicate arc is
    *    two, as in `ICRRSampler`. So an expanded node hashes once per live
    *    in-edge plus once, not once per in-edge.
    */
  private def search(g: SocialGraph, w: Long, root: Int, marks: ThreadLocal[NodeMarks],
                     through: Int => Boolean, stop: Array[Boolean]): Array[Int] = {
    val seen = marks.get.acquire(g.n, "reverse search re-entered from its own predicate")
    val wc = g.wcProb.length > 0
    try {
      seen.add(root)
      var found = stop != null && stop(root)
      var head = 0
      while (head < seen.size && !found) {
        val v = seen(head)
        val end = g.revOff(v + 1)
        seen.reserve(end - g.revOff(v))
        // 0 with explicit probabilities and where wcProb(v) >= 1: no skips
        val scale = if (wc) g.wcSkip(v) else 0.0
        var j = 0L
        var e = g.revOff(v) + gap(w, v, j, scale)
        while (e < end && !found) {
          val t = g.revSrc(e.toInt)
          if (!seen.has(t) && (wc || edgeLive(g, w, t, v, g.revProb(e.toInt))) && through(t)) {
            seen.add(t)
            found = stop != null && stop(t)
          }
          j += 1
          e += 1 + gap(w, v, j, scale)
        }
        head += 1
      }
      if (found) null else if (stop == null) seen.toArray else Array.emptyIntArray
    } finally seen.release()
  }

  /** Gap `j` of node `v` in hashed world `w` at skip scale `scale`; 0 when `scale` is 0. */
  private def gap(w: Long, v: Int, j: Long, scale: Double): Long =
    if (scale == 0.0) 0L else math.floor(math.log(1.0 - hash01(w, v.toLong, -1L - j)) * scale).toLong

  /** Seed flags per node of `g`; every seed must be a node of `g`. */
  private def seedFlags(g: SocialGraph, seeds: Array[Int]): Array[Boolean] = {
    val flags = new Array[Boolean](g.n)
    seeds.foreach { s =>
      require(s >= 0 && s < g.n, s"seed $s outside [0, ${g.n})")
      flags(s) = true
    }
    flags
  }

  /** RR sampler for item A given fixed seeds of the complement B: the
    * nodes from which a seeded A would reach (and be adopted by) the root,
    * where B's adopters in the world adopt A at the boosted rate.
    */
  final class RRSimSampler(g: SocialGraph, seedsB: Array[Int], gap: Gap) extends RRSampler {
    private val isSeedB = seedFlags(g, seedsB)
    private val qALow = math.min(gap.qA0, gap.qAB)
    private val qAHigh = math.max(gap.qA0, gap.qAB)
    def sample(rng: SplittableRandom): Array[Int] = {
      val w = rng.nextLong()
      val root = rng.nextInt(g.n)
      // B spreads with its own seeds boosted (the mutual-complement fixed
      // point: A seeds end up co-located with B's — see DESIGN.md); B's
      // adoption matters only when A's threshold lies between its two GAP
      // probabilities.
      val adoptsB = adoptsInSpread(g, w, isSeedB, u => if (isSeedB(u)) gap.qBA else gap.qB0, SaltB) _
      def adoptsA(u: Int): Boolean = {
        val h = hash01(w, u.toLong, SaltA)
        h < qALow || (h < qAHigh && h < (if (adoptsB(u)) gap.qAB else gap.qA0))
      }
      reverseAdoptingSet(g, w, root, adoptsA)
    }
  }

  /** RR sampler for RR-CIM: choose B seeds to maximise A adoptions, with
    * A's potential reach computed optimistically (boosted GAP) from its
    * fixed seed set.
    */
  final class RRCimSampler(g: SocialGraph, seedsA: Array[Int], gap: Gap) extends RRSampler {
    private val isSeedA = seedFlags(g, seedsA)
    def sample(rng: SplittableRandom): Array[Int] = {
      val w = rng.nextLong()
      val root = rng.nextInt(g.n)
      // Root must adopt A once boosted by B (its own threshold, checked
      // first) and be A-reachable.
      if (!adoptsInSpread(g, w, isSeedA, _ => gap.qAB, SaltA)(root)) return Array.empty
      def adoptsB(u: Int): Boolean = hash01(w, u.toLong, SaltB) < gap.qBA
      reverseAdoptingSet(g, w, root, adoptsB)
    }
  }

  /** Both baselines' stages: IMM from `seed` for the item held fixed, then
    * IMM from `seed + 1` over `sampler` of its seeds, capped at `maxRR`.
    * Returns (fixed seeds, chosen seeds).
    */
  private def twoStage(spark: SparkSession, g: SocialGraph, fixedBudget: Int, budget: Int, seed: Long,
                       maxRR: Int)(sampler: Array[Int] => RRSampler): (Array[Int], Array[Int]) = {
    val fixed = PRIMM.imm(spark, g, fixedBudget, seed = seed).seeds
    (fixed, PRIMM.imm(spark, g, budget, seed = seed + 1, sampler = Some(sampler(fixed)), maxRR = maxRR).seeds)
  }

  /** RR-SIM+: seeds of B via IMM, then seeds of A maximising A-adoption
    * given B. Returns (seedsA, seedsB).
    */
  def rrSimPlus(spark: SparkSession, g: SocialGraph, budgetA: Int, budgetB: Int,
                gap: Gap, seed: Long = 7, maxRR: Int): (Array[Int], Array[Int]) =
    twoStage(spark, g, budgetB, budgetA, seed, maxRR)(new RRSimSampler(g, _, gap)).swap

  /** RR-CIM: seeds of A via IMM, then seeds of B maximising A-adoption.
    * Returns (seedsA, seedsB).
    */
  def rrCim(spark: SparkSession, g: SocialGraph, budgetA: Int, budgetB: Int,
            gap: Gap, seed: Long = 7, maxRR: Int): (Array[Int], Array[Int]) =
    twoStage(spark, g, budgetA, budgetB, seed, maxRR)(new RRCimSampler(g, _, gap))
}
