// hvc_lint: run the repo's determinism & simulation-safety lint pass
// (src/lint) over one or more source trees.
//
//   hvc_lint [options] <file-or-dir>...
//     --sarif <file|->      also write a SARIF 2.1.0 report (for CI
//                           code-scanning upload); "-" = stdout, in
//                           place of the text report
//     --list-rules          print the rule table and exit
//
// Exit status: 0 clean, 1 findings, 2 usage / IO error. Header
// self-sufficiency (R6) is the hvc_header_check build target, not a
// flag here. scripts/check.sh lint is the canonical invocation.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "lint/lint.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sarif <file|->] [--list-rules] "
               "<file-or-dir>...\n",
               argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string sarif_path;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sarif") {
      if (++i >= argc) return usage(argv[0]);
      sarif_path = argv[i];
    } else if (arg == "--list-rules") {
      for (const auto& r : hvc::lint::rules()) {
        std::printf("%-28s %-8s %s\n", r.name,
                    hvc::lint::severity_name(r.severity), r.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  for (const auto& root : roots) {
    std::error_code ec;
    if (!std::filesystem::exists(root, ec) || ec) {
      std::fprintf(stderr, "hvc_lint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }

  const std::vector<hvc::lint::Finding> findings =
      hvc::lint::lint_tree(roots);

  if (!sarif_path.empty() &&
      !write_file(sarif_path, hvc::lint::to_sarif(findings) + "\n")) {
    std::fprintf(stderr, "hvc_lint: cannot write %s\n",
                 sarif_path.c_str());
    return 2;
  }

  // With `--sarif -` stdout carries the SARIF document alone, so it
  // stays parseable JSON.
  if (sarif_path != "-") {
    std::fputs(hvc::lint::to_text(findings).c_str(), stdout);
    if (findings.empty()) {
      std::printf("hvc_lint: clean (%zu root%s)\n", roots.size(),
                  roots.size() == 1 ? "" : "s");
    }
  }
  return findings.empty() ? 0 : 1;
}
