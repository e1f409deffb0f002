#include "common/cli.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"

namespace approxnoc {

CliArgs::CliArgs(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            positional_.push_back(a);
            continue;
        }
        a = a.substr(2);
        auto eq = a.find('=');
        if (eq != std::string::npos)
            values_[a.substr(0, eq)] = a.substr(eq + 1);
        else
            values_[a] = "true";
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

long
CliArgs::getInt(const std::string &name, long def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 0);
    if (end == it->second.c_str())
        ANOC_FATAL("flag --", name, " expects an integer, got '", it->second, "'");
    return v;
}

double
CliArgs::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str())
        ANOC_FATAL("flag --", name, " expects a number, got '", it->second, "'");
    return v;
}

void
CliArgs::rejectUnknown(std::initializer_list<std::string_view> known) const
{
    for (const auto &[name, value] : values_)
        if (std::find(known.begin(), known.end(), name) == known.end())
            ANOC_FATAL("unknown flag --", name, " (see --help)");
    if (!positional_.empty())
        ANOC_FATAL("unexpected argument '", positional_.front(),
                   "' (flags take the form --name=value)");
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    return v == "true" || v == "1" || v == "yes" || v == "on";
}

} // namespace approxnoc
