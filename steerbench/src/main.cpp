// steerbench: one command for steersim's performance benchmark
// (steerbench/BENCHMARK.md).
//
//   steerbench --workload NAME --seed N --seconds S --trace 0|1
//              [--git-describe D] [--source-digest D] [--out-dir DIR]
//   steerbench --list-metrics
//
// Workloads: solo_steer, solo_traced, quad_fabric, svc_mixed. --trace 0
// prints the end-to-end metrics; --trace 1 runs the span-traced pass and
// prints the per-layer metrics, writing the spans to
// <out-dir>/spans-<workload>-seed<N>.json. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <sys/stat.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "harness.hpp"

using namespace steerbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "steerbench: %s\nusage: steerbench --workload "
               "solo_steer|solo_traced|quad_fabric|svc_mixed --seed N "
               "--seconds S --trace 0|1 [--git-describe D] "
               "[--source-digest D] [--out-dir DIR] | --list-metrics\n",
               why);
  return 2;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto r = std::from_chars(text.data(), text.data() + text.size(), out);
  return r.ec == std::errc() && r.ptr == text.data() + text.size();
}

void list_metrics() {
  const auto dump = [](const char* key, const std::vector<MetricDef>& defs) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < defs.size(); ++i) {
      std::printf("%s{\"name\": \"%.*s\", \"unit\": \"%.*s\", "
                  "\"better\": \"%.*s\"}",
                  i == 0 ? "" : ", ", static_cast<int>(defs[i].name.size()),
                  defs[i].name.data(), static_cast<int>(defs[i].unit.size()),
                  defs[i].unit.data(),
                  static_cast<int>(defs[i].better.size()),
                  defs[i].better.data());
    }
    std::printf("]");
  };
  std::printf("{");
  dump("end_to_end", end_to_end_metrics());
  std::printf(", ");
  dump("per_layer", per_layer_metrics());
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) {
      return usage("missing value after an option");
    }
    const std::string_view value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, n)) {
        return usage("--seed takes a non-negative integer");
      }
      options.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 600) {
        return usage("--seconds takes an integer in [1, 600]");
      }
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--git-describe") {
      options.git_describe = value;
    } else if (arg == "--source-digest") {
      options.source_digest = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (mkdir(options.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "steerbench: cannot create %s: %s\n",
                 options.out_dir.c_str(), std::strerror(errno));
    return 1;
  }

  Report report;
  SpanSet spans;
  if (options.workload == "solo_steer") {
    run_solo(options, /*traced_sim=*/false, report, spans);
  } else if (options.workload == "solo_traced") {
    run_solo(options, /*traced_sim=*/true, report, spans);
  } else if (options.workload == "quad_fabric") {
    run_quad(options, report, spans);
  } else if (options.workload == "svc_mixed") {
    run_svc(options, report, spans);
  } else {
    return usage("unknown workload");
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!spans.write_chrome(path)) {
      std::fprintf(stderr, "steerbench: cannot write %s\n", path.c_str());
      return 1;
    }
    report.note("span_file", path);
  }
  return report.print(options) ? 0 : 1;
}
