#include "core/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace abt::core {

namespace {

/// model-name -> parser factory, registration order preserved.
std::vector<std::pair<std::string, ExtensionParserFactory>>& codecs() {
  static std::vector<std::pair<std::string, ExtensionParserFactory>> registry;
  return registry;
}

const ExtensionParserFactory* find_codec(std::string_view name) {
  for (const auto& [key, factory] : codecs()) {
    if (key == name) return &factory;
  }
  return nullptr;
}

}  // namespace

void register_instance_model(const std::string& model_name,
                             ExtensionParserFactory factory) {
  for (auto& [key, existing] : codecs()) {
    if (key == model_name) {
      existing = std::move(factory);
      return;
    }
  }
  codecs().emplace_back(model_name, std::move(factory));
}

std::vector<std::string> registered_instance_models() {
  std::vector<std::string> out;
  out.reserve(codecs().size());
  for (const auto& [key, factory] : codecs()) out.push_back(key);
  return out;
}

std::optional<ProblemInstance> parse_instance(std::istream& in,
                                              std::string* error) {
  const std::string text = read_all(in);
  LineCursor lines(text);
  return parse_instance(lines, error);
}

std::optional<ProblemInstance> parse_instance(LineCursor& lines,
                                              std::string* error) {
  enum class Model { kNone, kSlotted, kContinuous, kExtended };
  Model model = Model::kNone;
  std::unique_ptr<ExtensionParser> extension_parser;
  int capacity = -1;
  std::vector<SlottedJob> slotted_jobs;
  std::vector<ContinuousJob> continuous_jobs;

  auto report = [&](std::string_view what) {
    lines.fail(error, what);
    return std::nullopt;
  };
  Tokens ls;
  const auto read_job = [&ls](auto& jobs) {
    auto& job = jobs.emplace_back();
    return ls.number(job.release) && ls.number(job.deadline) &&
           ls.number(job.length);
  };
  while (lines.next(ls)) {
    std::string_view keyword;
    ls.next(keyword);

    if (keyword == "model") {
      if (model != Model::kNone) return report("duplicate model directive");
      std::string_view name;
      if (!ls.next(name)) return report("model needs a name");
      if (name == "slotted") {
        model = Model::kSlotted;
      } else if (name == "continuous") {
        model = Model::kContinuous;
      } else if (const ExtensionParserFactory* codec = find_codec(name)) {
        model = Model::kExtended;
        extension_parser = (*codec)();
      } else {
        std::string known = "slotted, continuous";
        for (const std::string& key : registered_instance_models()) {
          known += ", " + key;
        }
        std::string what =
            "unknown model '" + std::string(name) + "' (known: " + known;
        if (codecs().empty()) {
          // Distinguish a typo from a binary that never linked the codecs
          // (engine/adapters registers them at load time).
          what += "; no extended-model codecs are registered — link "
                  "engine/adapters or call engine::register_instance_codecs()";
        }
        return report(what + ")");
      }
    } else if (keyword == "capacity") {
      // A repeated capacity silently changing every preceding job's
      // context is exactly the silent-data-change class v2 eliminates.
      if (capacity > 0) return report("duplicate capacity directive");
      if (!ls.number(capacity) || capacity < 1) {
        return report("capacity needs a positive integer");
      }
    } else if (model == Model::kExtended) {
      // Everything but the shared header belongs to the model's codec.
      std::string why;
      if (!extension_parser->directive(keyword, ls, &why)) {
        return report(why);
      }
    } else if (keyword == "job") {
      if (model == Model::kNone) return report("job before model directive");
      const bool read = model == Model::kSlotted ? read_job(slotted_jobs)
                                                 : read_job(continuous_jobs);
      if (!read) return report("job needs: release deadline length");
    } else {
      return report("unknown directive '" + std::string(keyword) + "'");
    }
    if (!ls.done()) {
      return report("trailing tokens after " + std::string(keyword) +
                    " directive");
    }
  }
  if (model == Model::kNone) return report("missing 'model' directive");
  if (capacity < 1) return report("missing 'capacity' directive");

  std::string why;
  if (model == Model::kExtended) {
    ProblemInstance out;
    if (!extension_parser->finish(capacity, &out, &why)) return report(why);
    return out;
  }
  if (model == Model::kSlotted) {
    SlottedInstance inst(std::move(slotted_jobs), capacity);
    if (!inst.structurally_valid(&why)) return report(why);
    return make_instance(std::move(inst));
  }
  ContinuousInstance inst(std::move(continuous_jobs), capacity);
  if (!inst.structurally_valid(&why)) return report(why);
  return make_instance(std::move(inst));
}

void write_instance(std::ostream& out, const SlottedInstance& inst) {
  out << "model slotted\ncapacity " << inst.capacity() << "\n";
  for (const SlottedJob& j : inst.jobs()) {
    out << "job " << j.release << ' ' << j.deadline << ' ' << j.length << "\n";
  }
}

namespace {

/// Room one %.17g real needs: sign, 17 digits, point and exponent fit.
constexpr std::size_t kMaxRealChars = 32;

char* put_real(char* first, double value) {
  const std::to_chars_result res =
      std::to_chars(first, first + kMaxRealChars, value,
                    std::chars_format::general, 17);
  ABT_ASSERT(res.ec == std::errc(), "real does not fit kMaxRealChars");
  return res.ptr;
}

}  // namespace

char* put_job_line(char* first, const ContinuousJob& job) {
  char* p = std::copy_n("job ", 4, first);
  p = put_real(p, job.release);
  *p++ = ' ';
  p = put_real(p, job.deadline);
  *p++ = ' ';
  return put_real(p, job.length);
}

void write_instance(std::ostream& out, const ContinuousInstance& inst) {
  out << "model continuous\ncapacity " << inst.capacity() << "\n";
  // Each job line is formatted into one buffer and written at once.
  std::array<char, kMaxJobLineChars + 1> line{};
  for (const ContinuousJob& j : inst.jobs()) {
    char* p = put_job_line(line.data(), j);
    *p++ = '\n';
    out.write(line.data(), p - line.data());
  }
}

bool write_instance(std::ostream& out, const ProblemInstance& inst,
                    std::string* why) {
  if (inst.kind == InstanceKind::kStandard) {
    if (inst.family == Family::kActive) {
      write_instance(out, inst.slotted);
    } else {
      write_instance(out, inst.continuous);
    }
    return true;
  }
  const InstanceExtension* ext = inst.extension.get();
  if (ext == nullptr || ext->model_name().empty()) {
    if (why != nullptr) {
      *why = "instance kind '" +
             std::string(instance_kind_name(inst.kind)) +
             "' has no serialization support (emitting the standard-model "
             "view would silently drop the extension payload)";
    }
    return false;
  }
  // Buffer the body so a mid-serialization failure leaves NOTHING on the
  // caller's stream — a truncated-but-plausible instance file is the
  // artifact this function exists to prevent.
  std::ostringstream body;
  if (!ext->write_body(body)) {
    if (why != nullptr) {
      *why = "model '" + std::string(ext->model_name()) +
             "' failed to serialize its job payload";
    }
    return false;
  }
  out << "model " << ext->model_name() << "\ncapacity " << ext->capacity()
      << "\n"
      << body.str();
  return true;
}

}  // namespace abt::core
