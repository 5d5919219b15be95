package repro.bench

import repro.SparkSpec
import repro.jobs.Fig4RunningTime

/** Fig. 4: running time under Configuration 1 on all four networks. */
class Fig4RunningTimeBench extends TableBench with SparkSpec {
  test("Fig 4: running time of all algorithms, Configuration 1, b=50/50") {
    check(Fig4RunningTime.run(spark))
  }
}
