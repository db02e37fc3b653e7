#include "scaiev/datasheet.hh"

#include <stdexcept>

#include "support/logging.hh"

namespace longnail {
namespace scaiev {

const InterfaceTiming &
Datasheet::timing(SubInterface iface) const
{
    auto it = timings.find(iface);
    if (it == timings.end())
        LN_PANIC("datasheet for ", coreName, " lacks sub-interface ",
                 subInterfaceName(iface));
    return it->second;
}

yaml::Node
Datasheet::toYaml() const
{
    yaml::Node root = yaml::Node::makeMapping();
    root.set("core", yaml::Node(coreName));
    root.set("stages", yaml::Node(int64_t(numStages)));
    root.set("pipelined", yaml::Node(pipelined ? "true" : "false"));
    root.set("forwards from last stage",
             yaml::Node(forwardsFromLastStage ? "true" : "false"));
    root.set("operand stage", yaml::Node(int64_t(operandStage)));
    root.set("memory stage", yaml::Node(int64_t(memoryStage)));
    root.set("base area um2", yaml::Node(int64_t(baseAreaUm2)));
    root.set("base freq mhz", yaml::Node(int64_t(baseFreqMhz)));
    yaml::Node ifaces = yaml::Node::makeMapping();
    for (const auto &[iface, t] : timings) {
        yaml::Node entry = yaml::Node::makeMapping();
        entry.set("earliest", yaml::Node(int64_t(t.earliest)));
        entry.set("latest", yaml::Node(int64_t(t.latest)));
        entry.set("latency", yaml::Node(int64_t(t.latency)));
        ifaces.set(subInterfaceName(iface), entry);
    }
    root.set("interfaces", ifaces);
    return root;
}

Datasheet
Datasheet::fromYaml(const yaml::Node &node)
{
    Datasheet sheet;
    sheet.coreName = node.at("core").scalar();
    sheet.numStages = unsigned(node.at("stages").asInt());
    sheet.pipelined = node.at("pipelined").asBool();
    sheet.forwardsFromLastStage =
        node.at("forwards from last stage").asBool();
    sheet.operandStage = unsigned(node.at("operand stage").asInt());
    sheet.memoryStage = unsigned(node.at("memory stage").asInt());
    sheet.baseAreaUm2 = double(node.at("base area um2").asInt());
    sheet.baseFreqMhz = double(node.at("base freq mhz").asInt());
    for (const auto &[name, entry] : node.at("interfaces").entries()) {
        InterfaceTiming t;
        t.earliest = int(entry.at("earliest").asInt());
        t.latest = int(entry.at("latest").asInt());
        t.latency = unsigned(entry.at("latency").asInt());
        std::optional<SubInterface> iface = subInterfaceByName(name);
        if (!iface)
            throw std::runtime_error("unknown sub-interface '" + name +
                                     "'");
        sheet.timings[*iface] = t;
    }
    return sheet;
}

std::optional<Datasheet>
Datasheet::fromYaml(const yaml::Node &node, DiagnosticEngine &diags)
{
    DiagnosticEngine::ContextScope scope(diags, Phase::Scaiev,
                                         "LN3003");
    try {
        return fromYaml(node);
    } catch (const std::exception &e) {
        diags.error({}, "LN3003",
                    std::string("malformed datasheet: ") + e.what());
        return std::nullopt;
    }
}

namespace {

Datasheet
makeVexRiscv()
{
    // 5-stage: 0 fetch, 1 decode, 2 execute, 3 memory, 4 writeback.
    Datasheet d;
    d.coreName = "VexRiscv";
    d.numStages = 5;
    d.pipelined = true;
    d.forwardsFromLastStage = false;
    d.operandStage = 2;
    d.memoryStage = 3;
    d.baseAreaUm2 = 9052.0;
    d.baseFreqMhz = 701.0;
    d.timings = {
        {SubInterface::RdInstr, {1, 4, 0}},
        {SubInterface::RdRS1, {2, 4, 0}},
        {SubInterface::RdRS2, {2, 4, 0}},
        {SubInterface::RdPC, {0, 4, 0}},
        {SubInterface::RdMem, {3, 3, 1}},
        {SubInterface::WrRD, {2, 4, 0}},
        {SubInterface::WrPC, {1, 4, 0}},
        {SubInterface::WrMem, {3, 3, 1}},
        {SubInterface::RdCustReg, {2, 4, 0}},
        {SubInterface::WrCustRegAddr, {2, 4, 0}},
        {SubInterface::WrCustRegData, {2, 4, 0}},
    };
    return d;
}

Datasheet
makeOrca()
{
    // 5-stage; operands are read late (stage 3) and the writeback is
    // expected in the following stage, fed back through a forwarding
    // path from the last stage (Sec. 5.4).
    Datasheet d;
    d.coreName = "ORCA";
    d.numStages = 5;
    d.pipelined = true;
    d.forwardsFromLastStage = true;
    d.operandStage = 3;
    d.memoryStage = 3;
    d.baseAreaUm2 = 6612.0;
    d.baseFreqMhz = 996.0;
    d.timings = {
        {SubInterface::RdInstr, {1, 4, 0}},
        {SubInterface::RdRS1, {3, 3, 0}},
        {SubInterface::RdRS2, {3, 3, 0}},
        {SubInterface::RdPC, {0, 4, 0}},
        {SubInterface::RdMem, {3, 3, 1}},
        {SubInterface::WrRD, {4, 4, 0}},
        {SubInterface::WrPC, {1, 4, 0}},
        {SubInterface::WrMem, {3, 3, 1}},
        {SubInterface::RdCustReg, {3, 4, 0}},
        {SubInterface::WrCustRegAddr, {3, 4, 0}},
        {SubInterface::WrCustRegData, {3, 4, 0}},
    };
    return d;
}

Datasheet
makePiccolo()
{
    // 3-stage: 0 fetch, 1 decode/execute, 2 writeback.
    Datasheet d;
    d.coreName = "Piccolo";
    d.numStages = 3;
    d.pipelined = true;
    d.forwardsFromLastStage = false;
    d.operandStage = 1;
    d.memoryStage = 1;
    d.baseAreaUm2 = 26098.0;
    d.baseFreqMhz = 420.0;
    d.timings = {
        {SubInterface::RdInstr, {1, 2, 0}},
        {SubInterface::RdRS1, {1, 2, 0}},
        {SubInterface::RdRS2, {1, 2, 0}},
        {SubInterface::RdPC, {0, 2, 0}},
        {SubInterface::RdMem, {1, 1, 1}},
        {SubInterface::WrRD, {1, 2, 0}},
        {SubInterface::WrPC, {1, 2, 0}},
        {SubInterface::WrMem, {1, 1, 1}},
        {SubInterface::RdCustReg, {1, 2, 0}},
        {SubInterface::WrCustRegAddr, {1, 2, 0}},
        {SubInterface::WrCustRegData, {1, 2, 0}},
    };
    return d;
}

Datasheet
makePicoRV32()
{
    // Non-pipelined FSM core; "stages" are the FSM states of one
    // instruction: 0 fetch, 1 decode, 2 execute, 3 memory, 4 writeback.
    Datasheet d;
    d.coreName = "PicoRV32";
    d.numStages = 5;
    d.pipelined = false;
    d.forwardsFromLastStage = false;
    d.operandStage = 2;
    d.memoryStage = 3;
    d.baseAreaUm2 = 4745.0;
    d.baseFreqMhz = 1278.0;
    d.timings = {
        {SubInterface::RdInstr, {1, 4, 0}},
        {SubInterface::RdRS1, {2, 4, 0}},
        {SubInterface::RdRS2, {2, 4, 0}},
        {SubInterface::RdPC, {0, 4, 0}},
        {SubInterface::RdMem, {3, 3, 1}},
        {SubInterface::WrRD, {2, 4, 0}},
        {SubInterface::WrPC, {2, 4, 0}},
        {SubInterface::WrMem, {3, 3, 1}},
        {SubInterface::RdCustReg, {2, 4, 0}},
        {SubInterface::WrCustRegAddr, {2, 4, 0}},
        {SubInterface::WrCustRegData, {2, 4, 0}},
    };
    return d;
}

} // namespace

const Datasheet *
Datasheet::findCore(const std::string &name)
{
    static const std::map<std::string, Datasheet> cores = {
        {"ORCA", makeOrca()},
        {"Piccolo", makePiccolo()},
        {"PicoRV32", makePicoRV32()},
        {"VexRiscv", makeVexRiscv()},
    };
    auto it = cores.find(name);
    return it == cores.end() ? nullptr : &it->second;
}

const Datasheet &
Datasheet::forCore(const std::string &name)
{
    const Datasheet *sheet = findCore(name);
    if (!sheet)
        fatal("unknown core '", name, "'; available cores: ORCA, "
              "Piccolo, PicoRV32, VexRiscv");
    return *sheet;
}

std::vector<std::string>
Datasheet::knownCores()
{
    return {"ORCA", "Piccolo", "PicoRV32", "VexRiscv"};
}

} // namespace scaiev
} // namespace longnail
