package repro.graph

/** The two graph traversals the models share: the reverse BFS behind all
  * RR-set samplers (and the Com-IC samplers' adoption queries) and the
  * forward frontier loop behind EPIC diffusion. Callers
  * draw edge coins lazily from a live RNG inside the callbacks, so each
  * kernel's call order is part of its contract: changing it changes every
  * seeded result.
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

  /** Per-thread working memory of one forward sweep, `n` entries each
    * (grown when a larger graph comes): a touched flag per node (all false
    * between calls), the frontier and the touched list.
    */
  private final class SweepScratch {
    var inTouched = new Array[Boolean](0)
    var front = new Array[Int](0)
    var touched = new Array[Int](0)
    var busy = false
  }
  private val sweepScratch = ThreadLocal.withInitial[SweepScratch](() => new SweepScratch)

  /** Round-based forward propagation from `frontier`. Each round, every
    * frontier node `u` (in frontier order) calls `relax(u, e)` on each
    * out-edge `e` (in CSR order); a `true` touches `g.fwdDst(e)`. Then each
    * touched node (once, in first-touch order) calls `settle(v)`, and the
    * nodes for which it returns `true` form the next frontier.
    *
    * After the first round, which reads `frontier` itself, the sweep runs
    * in per-thread scratch arrays, so concurrent calls on different threads
    * are independent. The callbacks must not call `sweep`: a nested call on
    * the same thread throws.
    */
  def sweep(g: SocialGraph, frontier: Array[Int])(relax: (Int, Int) => Boolean)(settle: Int => Boolean): Unit = {
    val s = sweepScratch.get
    require(!s.busy, "sweep re-entered from its callback")
    if (s.inTouched.length < g.n) {
      s.inTouched = new Array[Boolean](g.n); s.front = new Array[Int](g.n); s.touched = new Array[Int](g.n)
    }
    val inTouched = s.inTouched
    val touched = s.touched
    var front = frontier
    var size = frontier.length
    var nTouched = 0
    s.busy = true
    try {
      while (size > 0) {
        var i = 0
        while (i < size) {
          val u = front(i)
          var e = g.fwdOff(u)
          val end = g.fwdOff(u + 1)
          while (e < end) {
            if (relax(u, e)) {
              val v = g.fwdDst(e)
              if (!inTouched(v)) { inTouched(v) = true; touched(nTouched) = v; nTouched += 1 }
            }
            e += 1
          }
          i += 1
        }
        // The frontier has been read: the next one (a subset of the touched nodes) overwrites it.
        front = s.front
        size = 0
        i = 0
        while (i < nTouched) {
          val v = touched(i)
          inTouched(v) = false
          if (settle(v)) { front(size) = v; size += 1 }
          i += 1
        }
        nTouched = 0
      }
    } finally {
      var i = 0
      while (i < nTouched) { inTouched(touched(i)) = false; i += 1 }
      s.busy = false
    }
  }

  /** Edge coins flipped at most once: the first `live(e, u)` on edge `e`
    * runs `flip(e, u)` and later calls replay its outcome (the diffusion
    * models' "tested once, status remembered").
    */
  final class EdgeCoins(g: SocialGraph, flip: (Int, Int) => Boolean) {
    private val state = new Array[Byte](g.fwdDst.length) // 0 untested, 1 live, 2 blocked
    def live(e: Int, u: Int): Boolean = {
      if (state(e) == 0) state(e) = if (flip(e, u)) 1 else 2
      state(e) == 1
    }
  }
}
