// mcx_bench: the one multiplexed bench driver.
//
// Every suite in bench/suites/ registers itself with bench::Driver at load
// time (MCX_BENCH_SUITE); this main only dispatches. See --help for the
// suite list and the registry listing flags.
//
// MCX_TRACE=<path> arms Chrome trace_event output for any suite (the spans
// in the synthesis front-end, MC engine and executor pool light up).
#include <iostream>

#include "api/driver.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  mcx::obs::armTraceFromEnv();
  return mcx::bench::Driver::global().run(argc, argv, std::cout, std::cerr);
}
