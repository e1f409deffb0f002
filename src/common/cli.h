/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries:
 * "--name=value" for valued flags, bare "--flag" for booleans. A space
 * never separates a flag from its value (that form is ambiguous with
 * positional arguments).
 */
#ifndef APPROXNOC_COMMON_CLI_H
#define APPROXNOC_COMMON_CLI_H

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace approxnoc {

/**
 * Parsed command line. Every flag is kept; a binary that knows its
 * full flag set rejects the rest with rejectUnknown().
 */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &name) const;

    /** String value of --name, or @p def when absent. */
    std::string getString(const std::string &name, const std::string &def) const;
    long getInt(const std::string &name, long def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def) const;

    /**
     * Fatal error (exit 1) naming the first flag, in name order, that
     * is not in @p known, or else the first positional argument. Call
     * it right after parsing, so a misspelt flag fails instead of
     * silently running with a default.
     */
    void rejectUnknown(std::initializer_list<std::string_view> known) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_CLI_H
