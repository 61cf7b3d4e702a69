#include "src/introspect/offline.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>

#include "src/introspect/admin.h"
#include "src/introspect/prometheus.h"

namespace psp {

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const int close_rc = std::fclose(f);
  return written == contents.size() && close_rc == 0;
}

std::string WriteIntrospectionFiles(const std::string& dir,
                                    const TelemetrySnapshot& snapshot,
                                    const OutlierRecorder* outliers) {
  if (dir.empty()) {
    return "introspect: output directory is empty";
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return "introspect: mkdir " + dir + " failed";
  }
  const struct {
    const char* file;
    std::string body;
  } files[] = {
      {"metrics.prom", RenderPrometheusText(snapshot)},
      {"snapshot.json", snapshot.ToJson()},
      {"timeseries.json", TimeseriesJsonFromSnapshot(snapshot)},
  };
  for (const auto& f : files) {
    const std::string path = dir + "/" + f.file;
    if (!WriteTextFile(path, f.body)) {
      return "introspect: write " + path + " failed";
    }
  }
  if (outliers != nullptr) {
    const std::string path = dir + "/outliers.json";
    if (!WriteTextFile(path, outliers->ToJson(snapshot.type_names))) {
      return "introspect: write " + path + " failed";
    }
  }
  return "";
}

}  // namespace psp
