#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/continuous_instance.hpp"
#include "core/lines.hpp"
#include "core/slotted_instance.hpp"
#include "core/solver.hpp"

namespace abt::core {

/// Instance I/O v2: plain-text instance format, one directive per line
/// ('#' comments). Every instance starts with a `model` directive and a
/// `capacity` directive; the per-job lines depend on the model:
///
///     model slotted            # integer active-time jobs
///     capacity 3
///     job 0 5 2                # release deadline length
///
///     model continuous         # real busy-time jobs
///     capacity 2
///     job 0.5 3.25 1.75        # release deadline length (reals)
///
///     model weighted           # cumulative-width busy time
///     capacity 4
///     job 0 2.5 2.5            # release deadline length (reals)
///     weight 3                 # width of the preceding job (default 1)
///
///     model multi-window       # window-union active time
///     capacity 2
///     job 3                    # length only
///     window 0 4               # release deadline; one line per window
///     window 6 9
///
/// The two standard models are built in; the extended models are plugged
/// in through the ExtensionCodec registry below (engine/adapters registers
/// `weighted` and `multi-window`), so core stays ignorant of their
/// concrete types while `parse_instance` / `write_instance` remain a
/// lossless inverse pair for every registered kind.

/// Parses an instance into the uniform carrier the registry trades in:
/// standard models fill the matching member, extended models carry an
/// InstanceExtension built by their registered codec. On failure returns
/// nullopt and explains in `error` (with a line number). Numbers follow
/// the core/lines grammar (integers stay integers, reals are finite) and
/// every directive rejects trailing tokens.
[[nodiscard]] std::optional<ProblemInstance> parse_instance(
    std::istream& in, std::string* error = nullptr);

/// Parses the rest of `lines`, to the end of its text, as an instance;
/// diagnostics carry the cursor's line numbers (an instance embedded in a
/// larger text is numbered over that whole text).
[[nodiscard]] std::optional<ProblemInstance> parse_instance(
    LineCursor& lines, std::string* error = nullptr);

/// Room put_job_line needs: "job " and three reals of at most 32 chars.
inline constexpr std::size_t kMaxJobLineChars = 4 + 3 * 33;

/// Writes the canonical `job release deadline length` directive (no
/// newline) at `first` and returns its end. The reals carry 17 significant
/// digits, as printf "%.17g" (which is what a stream prints at precision
/// 17), so every double survives the text round trip bit for bit. `first`
/// needs room for kMaxJobLineChars characters.
char* put_job_line(char* first, const ContinuousJob& job);

/// Serializers (lossless inverses of parse_instance).
void write_instance(std::ostream& out, const SlottedInstance& inst);
void write_instance(std::ostream& out, const ContinuousInstance& inst);

/// Uniform writer for any ProblemInstance. Returns false (explaining in
/// `why`) when the instance carries an extension that does not implement
/// the serialization hooks — callers must surface that as an error, never
/// fall back to emitting a lossy standard-model view.
[[nodiscard]] bool write_instance(std::ostream& out,
                                  const ProblemInstance& inst,
                                  std::string* why = nullptr);

/// Per-model parser plugged into parse_instance for one extended model.
/// The shared loop owns line reading, comments, line numbers, trailing-token
/// rejection and the `model`/`capacity` directives; everything else inside
/// an extended-model file is forwarded here keyword by keyword.
class ExtensionParser {
 public:
  virtual ~ExtensionParser() = default;

  /// Consumes one directive's arguments from `args` (positioned after the
  /// keyword). Errors are reported through `why` WITHOUT a line prefix;
  /// the caller adds it.
  virtual bool directive(std::string_view keyword, Tokens& args,
                         std::string* why) = 0;

  /// Validates the accumulated jobs and produces the finished instance
  /// (family, kind and extension all set).
  virtual bool finish(int capacity, ProblemInstance* out,
                      std::string* why) = 0;
};

/// Codec for one extended model name: a fresh parser per file.
using ExtensionParserFactory = std::function<std::unique_ptr<ExtensionParser>()>;

/// Registers an extended model under its `model` directive token.
/// Registering the same name twice replaces the codec (idempotent
/// re-registration is fine). Not thread-safe: register during startup,
/// before any concurrent parsing.
void register_instance_model(const std::string& model_name,
                             ExtensionParserFactory factory);

/// Registered extended model names, registration order (for diagnostics).
[[nodiscard]] std::vector<std::string> registered_instance_models();

}  // namespace abt::core
