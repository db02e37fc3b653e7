#include "support/failpoint.hh"

#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/log.hh"
#include "obs/metrics.hh"
#include "support/strings.hh"

namespace longnail {
namespace failpoint {

namespace {

struct Site
{
    Mode mode = Mode::Off;
    uint64_t transientCount = 0; ///< remaining transient failures
    uint64_t hits = 0;
};

struct Registry
{
    std::mutex mutex;
    std::map<std::string, Site> sites;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

void
arm(const std::string &name, Mode mode, uint64_t transient_count)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Site &site = r.sites[name];
    site.mode = mode;
    site.transientCount = mode == Mode::Transient ? transient_count : 0;
}

void
disarm(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.sites.find(name);
    if (it != r.sites.end()) {
        it->second.mode = Mode::Off;
        it->second.transientCount = 0;
    }
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.sites.clear();
}

std::string
armFromSpec(const std::string &spec)
{
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0)
        return "failpoint spec '" + spec +
               "' is not of the form name=mode";
    std::string name = trim(spec.substr(0, eq));
    std::string mode = trim(spec.substr(eq + 1));
    if (mode == "off") {
        disarm(name);
        return "";
    }
    if (mode == "fail") {
        arm(name, Mode::Fail);
        return "";
    }
    if (mode.compare(0, 9, "transient") == 0) {
        uint64_t count = 1;
        if (mode.size() > 9) {
            if (mode[9] != ':')
                return "bad transient spec '" + mode +
                       "' (want transient or transient:N)";
            char *end = nullptr;
            count = std::strtoull(mode.c_str() + 10, &end, 10);
            if (end == mode.c_str() + 10 || *end != '\0' || count == 0)
                return "bad transient count in '" + mode + "'";
        }
        arm(name, Mode::Transient, count);
        return "";
    }
    return "unknown failpoint mode '" + mode +
           "' (want off, fail, or transient[:N])";
}

std::string
armFromEnv(const char *env_var)
{
    const char *value = std::getenv(env_var);
    if (!value || !*value)
        return "";
    for (const std::string &spec : split(value, ';')) {
        if (trim(spec).empty())
            continue;
        std::string err = armFromSpec(trim(spec));
        if (!err.empty())
            return err;
    }
    return "";
}

Mode
fire(const char *name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Site &site = r.sites[name];
    ++site.hits;
    switch (site.mode) {
      case Mode::Off:
        return Mode::Off;
      case Mode::Fail:
        obs::count("failpoint.trips");
        obs::logEvent(obs::LogLevel::Warn, "failpoint", {{"name", name}});
        obs::flightrec::writePostmortem("failpoint");
        return Mode::Fail;
      case Mode::Transient:
        if (site.transientCount == 0)
            return Mode::Off;
        --site.transientCount;
        obs::count("failpoint.trips");
        obs::logEvent(obs::LogLevel::Warn, "failpoint", {{"name", name}});
        obs::flightrec::writePostmortem("failpoint");
        return Mode::Transient;
    }
    return Mode::Off;
}

uint64_t
hitCount(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.sites.find(name);
    return it == r.sites.end() ? 0 : it->second.hits;
}

std::vector<std::string>
armedNames()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    for (const auto &[name, site] : r.sites)
        if (site.mode != Mode::Off)
            names.push_back(name);
    return names;
}

} // namespace failpoint
} // namespace longnail
