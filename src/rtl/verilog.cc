#include "rtl/verilog.hh"

#include <set>
#include <sstream>

#include "support/logging.hh"

namespace longnail {
namespace rtl {

namespace {

class Emitter
{
  public:
    explicit Emitter(const Module &module) : module_(module) {}

    std::string
    run()
    {
        assignNames();
        emitHeader();
        emitDeclarations();
        emitBody();
        emitOutputs();
        os_ << "endmodule\n";
        return os_.str();
    }

  private:
    std::string
    width(unsigned w)
    {
        if (w == 1)
            return "";
        return "[" + std::to_string(w - 1) + ":0] ";
    }

    void
    assignNames()
    {
        // A net may carry the name of an output port; the internal
        // wire then needs a distinct name (the port is declared in the
        // header and bound via a trailing assign).
        std::set<std::string> port_names;
        for (const auto &port : module_.outputs())
            port_names.insert(port.name);
        names_.resize(module_.numNets());
        for (NetId net = 0; net < module_.numNets(); ++net) {
            const std::string &given = module_.netName(net);
            if (given.empty())
                names_[net] = "_t" + std::to_string(net);
            else if (port_names.count(given))
                names_[net] = given + "_w";
            else
                names_[net] = given;
        }
    }

    const std::string &name(NetId net) const { return names_.at(net); }

    void
    emitHeader()
    {
        os_ << "module " << module_.name() << "(\n";
        os_ << "    input clk,\n    input rst";
        for (const auto &[port_name, net] : module_.inputs())
            os_ << ",\n    input " << width(module_.widthOf(net))
                << port_name;
        for (const auto &port : module_.outputs())
            os_ << ",\n    output " << width(module_.widthOf(port.net))
                << port.name;
        os_ << ");\n\n";
    }

    void
    emitDeclarations()
    {
        for (const Node &node : module_.nodes()) {
            unsigned w = module_.widthOf(node.result);
            switch (node.kind) {
              case NodeKind::Input:
                break;
              case NodeKind::Register:
              case NodeKind::Rom:
                os_ << "  reg " << width(w) << name(node.result)
                    << ";\n";
                break;
              default:
                os_ << "  wire " << width(w) << name(node.result)
                    << ";\n";
                break;
            }
        }
        os_ << "\n";
    }

    std::string
    literal(const ApInt &value)
    {
        return std::to_string(value.width()) + "'h" +
               value.toStringUnsigned(16);
    }

    /**
     * "(b == W'd0) ? W'd0 : " in front of a division or remainder, so a
     * zero divisor yields 0 as in rtl::Simulator, simjit and TV instead
     * of X. The signed forms take a signed zero: an unsigned branch
     * would make the whole conditional, and with it the $signed
     * division, unsigned.
     */
    std::string
    divByZeroGuard(const Node &node, bool is_signed)
    {
        NetId divisor = node.operands[1];
        return "(" + names_[divisor] + " == " +
               std::to_string(module_.widthOf(divisor)) + "'d0) ? " +
               std::to_string(module_.widthOf(node.result)) +
               (is_signed ? "'sd0 : " : "'d0 : ");
    }

    void
    emitBody()
    {
        for (const Node &node : module_.nodes())
            emitNode(node);
    }

    void
    emitNode(const Node &node)
    {
        const std::string &res = name(node.result);
        auto in = [&](unsigned i) -> const std::string & {
            return names_[node.operands[i]];
        };
        auto assign = [&](const std::string &rhs) {
            os_ << "  assign " << res << " = " << rhs << ";\n";
        };
        auto infix = [&](const std::string &lhs, const std::string &rhs) {
            return lhs + " " + ir::combInfo(*combOpOf(node.kind)).infix +
                   " " + rhs;
        };
        auto sgn = [&](unsigned i) { return "$signed(" + in(i) + ")"; };
        switch (node.kind) {
          case NodeKind::Input:
            break;
          case NodeKind::Constant:
            assign(literal(node.value));
            break;
          case NodeKind::DivU:
          case NodeKind::ModU:
            assign(divByZeroGuard(node, false) + infix(in(0), in(1)));
            break;
          case NodeKind::DivS:
          case NodeKind::ModS:
            assign(divByZeroGuard(node, true) + infix(sgn(0), sgn(1)));
            break;
          case NodeKind::ShrS:
            assign(infix(sgn(0), in(1)));
            break;
          case NodeKind::ICmp: {
            const char *op = "==";
            bool is_signed = false;
            switch (node.pred) {
              case ir::ICmpPred::Eq: op = "=="; break;
              case ir::ICmpPred::Ne: op = "!="; break;
              case ir::ICmpPred::Ult: op = "<"; break;
              case ir::ICmpPred::Ule: op = "<="; break;
              case ir::ICmpPred::Ugt: op = ">"; break;
              case ir::ICmpPred::Uge: op = ">="; break;
              case ir::ICmpPred::Slt: op = "<"; is_signed = true; break;
              case ir::ICmpPred::Sle: op = "<="; is_signed = true; break;
              case ir::ICmpPred::Sgt: op = ">"; is_signed = true; break;
              case ir::ICmpPred::Sge: op = ">="; is_signed = true; break;
            }
            if (is_signed)
                assign("$signed(" + in(0) + ") " + op + " $signed(" +
                       in(1) + ")");
            else
                assign(in(0) + " " + op + " " + in(1));
            break;
          }
          case NodeKind::Mux:
            assign(in(0) + " ? " + in(1) + " : " + in(2));
            break;
          case NodeKind::Extract:
            if (module_.widthOf(node.result) == 1)
                assign(in(0) + "[" + std::to_string(node.lo) + "]");
            else
                assign(in(0) + "[" +
                       std::to_string(node.lo +
                                      module_.widthOf(node.result) - 1) +
                       ":" + std::to_string(node.lo) + "]");
            break;
          case NodeKind::Concat: {
            std::string rhs = "{";
            for (size_t i = 0; i < node.operands.size(); ++i) {
                if (i)
                    rhs += ", ";
                rhs += in(i);
            }
            assign(rhs + "}");
            break;
          }
          case NodeKind::Replicate:
            assign("{" +
                   std::to_string(module_.widthOf(node.result)) + "{" +
                   in(0) + "}}");
            break;
          case NodeKind::Rom: {
            os_ << "  always_comb begin\n    case (" << in(0)
                << ")\n";
            for (size_t i = 0; i < node.romValues.size(); ++i)
                os_ << "      " << i << ": " << res << " = "
                    << literal(node.romValues[i]) << ";\n";
            os_ << "      default: " << res << " = '0;\n"
                << "    endcase\n  end\n";
            break;
          }
          case NodeKind::Register: {
            os_ << "  always_ff @(posedge clk)\n    " << res
                << " <= rst ? " << literal(node.value) << " : ";
            if (node.operands.size() == 2)
                os_ << "(" << in(1) << " ? " << in(0) << " : " << res
                    << ")";
            else
                os_ << in(0);
            os_ << ";\n";
            break;
          }
          default:
            assign(infix(in(0), in(1)));
            break;
        }
    }

    void
    emitOutputs()
    {
        os_ << "\n";
        for (const auto &port : module_.outputs()) {
            if (name(port.net) != port.name)
                os_ << "  assign " << port.name << " = "
                    << name(port.net) << ";\n";
        }
    }

    const Module &module_;
    std::ostringstream os_;
    std::vector<std::string> names_;
};

} // namespace

std::string
emitVerilog(const Module &module)
{
    return Emitter(module).run();
}

} // namespace rtl
} // namespace longnail
