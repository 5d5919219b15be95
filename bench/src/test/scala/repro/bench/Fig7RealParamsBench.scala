package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.jobs.Fig7RealParams

/** Fig. 7(a,b): the learned PS4-bundle parameters on Douban-Movie. */
class Fig7RealParamsBench extends TableBench with SparkSpec {
  test("Fig 7(a,b): welfare and running time under real parameters") {
    check(Fig7RealParams.run(spark, Experiments.network("Douban-Movie")))
  }
}
