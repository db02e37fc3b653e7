#include "scaiev/config.hh"

#include <stdexcept>
#include <string_view>

#include "support/strings.hh"

namespace longnail {
namespace scaiev {

namespace {

/** Where a per-register row's Table 1 name holds the register. */
constexpr std::string_view regPlaceholder = "CustReg";

} // namespace

std::string
ScheduledUse::displayName() const
{
    std::string name = subInterfaceName(iface);
    if (interfaceInfo(iface).perRegister)
        name.replace(name.find(regPlaceholder), regPlaceholder.size(),
                     reg);
    return name;
}

yaml::Node
ScaievConfig::toYaml() const
{
    yaml::Node root = yaml::Node::makeMapping();
    root.set("isax", yaml::Node(isaxName));
    root.set("core", yaml::Node(coreName));

    yaml::Node state = yaml::Node::makeSequence();
    for (const auto &reg : registers) {
        yaml::Node entry = yaml::Node::makeMapping();
        entry.set("register", yaml::Node(reg.name));
        entry.set("width", yaml::Node(int64_t(reg.width)));
        entry.set("elements", yaml::Node(int64_t(reg.elements)));
        state.push(entry);
    }
    root.set("state", state);

    yaml::Node funcs = yaml::Node::makeSequence();
    for (const auto &fn : functionality) {
        yaml::Node entry = yaml::Node::makeMapping();
        entry.set(fn.isAlways ? "always" : "instruction",
                  yaml::Node(fn.name));
        if (!fn.isAlways)
            entry.set("mask", yaml::Node(fn.mask));
        yaml::Node sched = yaml::Node::makeSequence();
        for (const auto &use : fn.schedule) {
            yaml::Node op = yaml::Node::makeMapping();
            op.set("interface", yaml::Node(use.displayName()));
            op.set("stage", yaml::Node(int64_t(use.stage)));
            if (use.hasValid)
                op.set("has valid", yaml::Node(int64_t(1)));
            if (use.mode != ExecutionMode::InPipeline)
                op.set("mode", yaml::Node(executionModeName(use.mode)));
            sched.push(op);
        }
        entry.set("schedule", sched);
        funcs.push(entry);
    }
    root.set("functionality", funcs);
    return root;
}

namespace {

/** Inverse of ScheduledUse::displayName(): the plain names first,
 * then the per-register forms in table order. */
void
parseInterfaceName(const std::string &text, ScheduledUse &use)
{
    if (auto iface = subInterfaceByName(text);
        iface && !interfaceInfo(*iface).perRegister) {
        use.iface = *iface;
        return;
    }
    for (unsigned i = 0; i < ir::numIfaceOps; ++i) {
        auto iface = SubInterface(i);
        if (!interfaceInfo(iface).perRegister)
            continue;
        std::string form = subInterfaceName(iface);
        size_t at = form.find(regPlaceholder);
        std::string prefix = form.substr(0, at);
        std::string suffix = form.substr(at + regPlaceholder.size());
        if (text.size() >= prefix.size() + suffix.size() &&
            startsWith(text, prefix) && endsWith(text, suffix)) {
            use.iface = iface;
            use.reg = text.substr(prefix.size(), text.size() -
                                                     prefix.size() -
                                                     suffix.size());
            return;
        }
    }
    throw std::runtime_error("unknown interface name '" + text + "'");
}

ExecutionMode
parseMode(const std::string &text)
{
    if (text == "in-pipeline")
        return ExecutionMode::InPipeline;
    if (text == "tightly-coupled")
        return ExecutionMode::TightlyCoupled;
    if (text == "decoupled")
        return ExecutionMode::Decoupled;
    if (text == "always")
        return ExecutionMode::Always;
    throw std::runtime_error("unknown execution mode '" + text + "'");
}

} // namespace

ScaievConfig
ScaievConfig::fromYaml(const yaml::Node &node)
{
    ScaievConfig config;
    config.isaxName = node.at("isax").scalar();
    config.coreName = node.at("core").scalar();
    for (const auto &entry : node.at("state").items()) {
        ConfigRegister reg;
        reg.name = entry.at("register").scalar();
        reg.width = unsigned(entry.at("width").asInt());
        reg.elements = uint64_t(entry.at("elements").asInt());
        config.registers.push_back(reg);
    }
    for (const auto &entry : node.at("functionality").items()) {
        ConfigFunctionality fn;
        fn.isAlways = entry.has("always");
        fn.name = entry.at(fn.isAlways ? "always" : "instruction")
                      .scalar();
        if (entry.has("mask"))
            fn.mask = entry.at("mask").scalar();
        for (const auto &op : entry.at("schedule").items()) {
            ScheduledUse use;
            parseInterfaceName(op.at("interface").scalar(), use);
            use.stage = int(op.at("stage").asInt());
            use.hasValid = op.has("has valid") &&
                           op.at("has valid").asInt() != 0;
            if (op.has("mode"))
                use.mode = parseMode(op.at("mode").scalar());
            fn.schedule.push_back(use);
        }
        config.functionality.push_back(std::move(fn));
    }
    return config;
}

std::optional<ScaievConfig>
ScaievConfig::fromYaml(const yaml::Node &node, DiagnosticEngine &diags)
{
    DiagnosticEngine::ContextScope scope(diags, Phase::Scaiev,
                                         "LN3004");
    try {
        return fromYaml(node);
    } catch (const std::exception &e) {
        diags.error({}, "LN3004",
                    std::string("malformed SCAIE-V config: ") +
                        e.what());
        return std::nullopt;
    }
}

const ConfigFunctionality *
ScaievConfig::find(const std::string &name) const
{
    for (const auto &fn : functionality)
        if (fn.name == name)
            return &fn;
    return nullptr;
}

} // namespace scaiev
} // namespace longnail
