// The entry point every bench links: it parses the flags and runs the
// bench's bench_main, turning a bad flag value into "error: <reason>" and
// exit status 2 (util::run_main).
#include "util/cli.hpp"

int bench_main(const ibarb::util::Cli& cli);

int main(int argc, char** argv) {
  return ibarb::util::run_main(argc, argv, bench_main);
}
