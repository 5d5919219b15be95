package repro.graph

import java.util.SplittableRandom

/** The reverse graph traversals the models share: the reverse BFS behind
  * the Com-IC RR-set samplers and their adoption queries, and its
  * closure-free IC twin behind IC RR-set sampling. Edge coins are drawn
  * lazily from a live RNG, inside the callbacks or the IC loop itself, so
  * each kernel's draw order is part of its contract: changing it changes
  * every seeded result.
  */
object Traversal {

  /** Per-thread working memory of one reverse BFS: one visited flag per
    * node (all false between calls; grown when a larger graph comes) and
    * the BFS queue (grown on demand).
    */
  private final class Scratch {
    var seen = new Array[Boolean](0)
    var queue = new Array[Int](64)
    var busy = false
  }
  // One scratch per kernel, so that a `reverseReaches` query can run inside
  // a `reverseReach` callback.
  private val reachScratch = ThreadLocal.withInitial[Scratch](() => new Scratch)
  private val queryScratch = ThreadLocal.withInitial[Scratch](() => new Scratch)
  private val noTarget: Int => Boolean = _ => false
  private val TwoTo53 = (1L << 53).toDouble

  /** The IC RR set of `root`: exactly what [[reverseReach]] returns with
    * `live = (e, w) => rng.nextDouble() < g.revP(e, w)`, from the same
    * `rng.nextLong()` draws (one per in-edge whose tail is unvisited) in the
    * same order. `nextDouble()` is `(nextLong() >>> 11) * 2^-53`, so a draw
    * `x` is live iff `(x >>> 11) < ceil(p * 2^53)`, the coin threshold,
    * computed once per expanded node under weighted cascade and once per
    * arc with explicit probabilities.
    *
    * IC sampling has its own loop rather than a `live` closure through
    * `search`, whose `live` call site turns megamorphic once the Com-IC
    * samplers' closures have run through it. Drawing greedyWM's 166,258
    * Twitter stand-in RR sets on one thread of a 4-vCPU x86 host took
    * 1.10 s through `search` with only the IC closure loaded, 1.57 s after
    * the Com-IC samplers had run, and 0.66 s in this loop either way.
    *
    * It shares [[reverseReach]]'s scratch, so it may not run inside a
    * `reverseReach` callback.
    */
  def reverseCoinReach(g: SocialGraph, root: Int, rng: SplittableRandom): Array[Int] = {
    val s = reachScratch.get
    require(!s.busy, "reverseCoinReach called from a reverseReach callback")
    if (s.seen.length < g.n) s.seen = new Array[Boolean](g.n)
    val seen = s.seen
    val revOff = g.revOff
    val revSrc = g.revSrc
    val revProb = g.revProb
    val wcProb = g.wcProb
    val wc = wcProb.length > 0
    var queue = s.queue
    queue(0) = root
    seen(root) = true
    var size = 1
    try {
      var head = 0
      while (head < size) {
        val w = queue(head)
        val nodeThreshold = if (wc) coinThreshold(wcProb(w)) else 0L
        var e = revOff(w)
        val end = revOff(w + 1)
        while (e < end) {
          val u = revSrc(e)
          if (!seen(u) && (rng.nextLong() >>> 11) < (if (wc) nodeThreshold else coinThreshold(revProb(e)))) {
            if (size == queue.length) { queue = java.util.Arrays.copyOf(queue, size * 2); s.queue = queue }
            queue(size) = u; size += 1
            seen(u) = true
          }
          e += 1
        }
        head += 1
      }
      java.util.Arrays.copyOf(queue, size)
    } finally {
      var i = 0
      while (i < size) { seen(queue(i)) = false; i += 1 }
    }
  }

  /** `ceil(p * 2^53)`: a 53-bit draw `x` has `x * 2^-53 < p` iff `x` is
    * below it (both sides are exact, and `x` is an integer).
    */
  private[graph] def coinThreshold(p: Double): Long = math.ceil(p * TwoTo53).toLong

  /** Nodes that reach `root` over live reverse edges, in BFS order with
    * `root` first. Expanding node `w`, the in-edges `e` of `w` are scanned
    * in reverse-CSR order; `live(e, w)` is asked only for an edge whose
    * tail `g.revSrc(e)` is not yet visited, and a live edge adds that tail.
    *
    * The traversal runs in per-thread scratch arrays, cleared through the
    * returned members, so concurrent calls on different threads are
    * independent. `live` may call [[reverseReaches]] but not `reverseReach`
    * itself: a nested call on the same thread throws.
    */
  def reverseReach(g: SocialGraph, root: Int)(live: (Int, Int) => Boolean): Array[Int] = {
    val s = reachScratch.get
    val size = search(g, root, s, "reverseReach", live, noTarget)
    java.util.Arrays.copyOf(s.queue, size)
  }

  /** Whether a node for which `target` holds reaches `from` (or is `from`)
    * over live reverse edges: the walk of [[reverseReach]] from `from`,
    * stopped at the first node added for which `target` holds.
    *
    * It has its own per-thread scratch, so a `reverseReach` callback may
    * call it; its own `live` must not call `reverseReaches` again.
    */
  def reverseReaches(g: SocialGraph, from: Int)(live: (Int, Int) => Boolean)(target: Int => Boolean): Boolean =
    search(g, from, queryScratch.get, "reverseReaches", live, target) < 0

  /** The reverse BFS behind both kernels, in scratch `s`. Returns the
    * number of nodes visited (left in `s.queue`), or -1 once `target`
    * holds for a visited node.
    */
  private def search(g: SocialGraph, root: Int, s: Scratch, kernel: String,
                     live: (Int, Int) => Boolean, target: Int => Boolean): Int = {
    require(!s.busy, s"$kernel re-entered from its live callback")
    if (s.seen.length < g.n) s.seen = new Array[Boolean](g.n)
    val seen = s.seen
    var queue = s.queue
    queue(0) = root
    seen(root) = true
    s.busy = true
    var size = 1
    try {
      var found = target(root)
      var head = 0
      while (head < size && !found) {
        val w = queue(head)
        var e = g.revOff(w)
        val end = g.revOff(w + 1)
        while (e < end && !found) {
          val u = g.revSrc(e)
          if (!seen(u) && live(e, w)) {
            if (size == queue.length) { queue = java.util.Arrays.copyOf(queue, size * 2); s.queue = queue }
            queue(size) = u; size += 1
            seen(u) = true
            found = target(u)
          }
          e += 1
        }
        head += 1
      }
      if (found) -1 else size
    } finally {
      var i = 0
      while (i < size) { seen(queue(i)) = false; i += 1 }
      s.busy = false
    }
  }
}
