// Subcommands of the her_perfbench binary (run.py shows how they are used).

#ifndef HER_PERFBENCH_PERFBENCH_H_
#define HER_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

/// "--key value" pairs after the subcommand; a missing key is an error.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::invalid_argument(key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  const std::string& Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  uint64_t U64(const std::string& key) const {
    return std::strtoull(Str(key).c_str(), nullptr, 10);
  }
  double Double(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

int PrepareScale(const Args& args);
int RunScaleWorkload(const Args& args);
int PrepareLearned(const Args& args);
int RunLearnedWorkload(const Args& args);
int PrepareServe(const Args& args);
int RunServePass(const Args& args);

}  // namespace perfbench

#endif  // HER_PERFBENCH_PERFBENCH_H_
