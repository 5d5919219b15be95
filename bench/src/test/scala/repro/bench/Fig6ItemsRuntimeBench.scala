package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.jobs.Fig6ItemsRuntime

/** Fig. 6: running time vs number of items on the Twitter stand-in, at
  * s = 1, 2, 5, 10 of the paper's 1..10.
  */
class Fig6ItemsRuntimeBench extends TableBench with SparkSpec {
  test("Fig 6: running time vs number of items on Twitter (Config 7, k=50)") {
    check(Fig6ItemsRuntime.run(spark, Experiments.network("Twitter"), items = Seq(1, 2, 5, 10)))
  }
}
