#include "src/aft/listing.h"

#include <map>

#include "src/common/strings.h"
#include "src/isa/disassembler.h"
#include "src/isa/encoding.h"
#include "src/mcu/memory_map.h"
#include "src/scope/region_map.h"

namespace amulet {

namespace {

// Reads a word out of the image's chunks (0 for gaps).
uint16_t ImageWord(const Image& image, uint16_t addr) {
  for (const auto& [base, bytes] : image.chunks) {
    if (addr >= base && addr + 1u < base + bytes.size() + 1u) {
      size_t off = addr - base;
      if (off + 1 < bytes.size()) {
        return static_cast<uint16_t>(bytes[off] | (bytes[off + 1] << 8));
      }
    }
  }
  return 0;
}

std::multimap<uint16_t, std::string> SymbolsByAddress(const Image& image) {
  std::multimap<uint16_t, std::string> by_addr;
  for (const auto& [name, addr] : image.symbols) {
    if (IsScopeLabel(name)) {
      // Zero-size profiler region markers (src/scope): they share addresses
      // with real symbols and would clutter every listing.
      continue;
    }
    by_addr.emplace(addr, name);
  }
  return by_addr;
}

}  // namespace

std::string RenderRegionMap(const Firmware& firmware) {
  std::string out;
  const uint16_t os_data_base = static_cast<uint16_t>(firmware.os_mpu_segb1 << 4);
  const uint16_t apps_base = static_cast<uint16_t>(firmware.os_mpu_segb2 << 4);
  out += StrFormat("  [%s, %s)  OS text (veneers, gates, runtime)\n",
                   HexWord(kFramStart).c_str(), HexWord(os_data_base).c_str());
  out += StrFormat("  [%s, %s)  OS data (saved stack pointers)\n",
                   HexWord(os_data_base).c_str(), HexWord(apps_base).c_str());
  for (const AppImage& app : firmware.apps) {
    out += StrFormat("  [%s, %s)  %s code\n", HexWord(app.code_lo).c_str(),
                     HexWord(app.code_hi).c_str(), app.name.c_str());
    out += StrFormat("  [%s, %s)  %s stack (%d B, grows down%s)\n",
                     HexWord(app.data_lo).c_str(), HexWord(app.stack_top).c_str(),
                     app.name.c_str(), app.stack_bytes,
                     app.stack_statically_bounded ? "" : ", recursion default");
    out += StrFormat("  [%s, %s)  %s globals\n", HexWord(app.stack_top).c_str(),
                     HexWord(app.data_hi).c_str(), app.name.c_str());
  }
  return out;
}

std::string DisassembleRange(const Firmware& firmware, uint16_t begin, uint16_t end) {
  std::string out;
  auto symbols = SymbolsByAddress(firmware.image);
  uint16_t pc = begin & static_cast<uint16_t>(~1);
  while (pc < end) {
    auto [sym_begin, sym_end] = symbols.equal_range(pc);
    for (auto it = sym_begin; it != sym_end; ++it) {
      out += it->second + ":\n";
    }
    uint16_t words[3] = {ImageWord(firmware.image, pc),
                         ImageWord(firmware.image, static_cast<uint16_t>(pc + 2)),
                         ImageWord(firmware.image, static_cast<uint16_t>(pc + 4))};
    auto decoded = Decode(words);
    if (!decoded.ok()) {
      out += StrFormat("  %s: %s        .word %s\n", HexWord(pc).c_str(),
                       HexWord(words[0]).c_str(), HexWord(words[0]).c_str());
      pc += 2;
      continue;
    }
    const int count = decoded->WordCount();
    std::string raw;
    for (int i = 0; i < count; ++i) {
      raw += HexWord(words[i]).substr(2) + " ";
    }
    out += StrFormat("  %s: %-15s %s\n", HexWord(pc).c_str(), raw.c_str(),
                     Disassemble(*decoded, pc).c_str());
    pc = static_cast<uint16_t>(pc + 2 * count);
  }
  return out;
}

std::string RenderListing(const Firmware& firmware) {
  std::string out;
  out += StrFormat("Firmware listing (model: %s%s)\n",
                   std::string(MemoryModelName(firmware.model)).c_str(),
                   firmware.shadow_return_stack ? ", shadow return stack" : "");
  out += "\nMemory map:\n";
  out += RenderRegionMap(firmware);

  out += "\nOS text:\n";
  out += DisassembleRange(firmware, kFramStart,
                          static_cast<uint16_t>(firmware.os_mpu_segb1 << 4));
  for (const AppImage& app : firmware.apps) {
    out += StrFormat("\napp '%s' text:\n", app.name.c_str());
    out += DisassembleRange(firmware, app.code_lo, app.code_hi);
  }

  out += "\nSymbols:\n";
  for (const auto& [addr, name] : SymbolsByAddress(firmware.image)) {
    out += StrFormat("  %s  %s\n", HexWord(addr).c_str(), name.c_str());
  }
  return out;
}

}  // namespace amulet
