package repro.epic

import repro.graph.SocialGraph
import repro.im.RRSets.hash01
import repro.items.SetFunctions

/** EPIC diffusion in replayable hashed edge worlds, so that `EpicPregel`
  * and the local simulator can walk the same world.
  */
object HashedWorld {

  /** Is the edge `src -> dst` live in the edge world `worldSeed`? */
  def edgeLive(g: SocialGraph, worldSeed: Long)(edgeIdx: Int, src: Int): Boolean =
    hash01(worldSeed, src.toLong, g.fwdDst(edgeIdx).toLong) < g.fwdP(edgeIdx)

  /** `EpicSimulator`'s diffusion in the edge world `worldSeed`. */
  def diffuseFixedWorld(g: SocialGraph, alloc: Map[Int, Int], util: Array[Double],
                        worldSeed: Long): Array[Int] =
    EpicSimulator.run(g, alloc, util, SetFunctions.isSupermodular(util), edgeLive(g, worldSeed))
}
