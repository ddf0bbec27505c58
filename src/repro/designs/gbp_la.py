"""Gaussian Blur Pyramid — latency-abstract implementation (section 7).

The design mirrors the paper's structure:

* an Aetherling-generated 4x4 convolution whose chunk size ``#N``,
  latency, initiation interval and input-hold requirement are *output
  parameters* chosen by the tool;
* a serializer (Figure 11) streaming a 16-pixel tile to the convolution
  in ``16/#N`` chunks;
* a ``Blur`` component that realigns the chunked results with per-element
  shift registers (pipeline balancing the type system verifies for every
  choice of ``#N``);
* the pyramid: blur, downsample, blur, upsample, blend with the delayed
  level-0 image, and a final anti-aliasing blur — with all inter-stage
  delays expressed through output parameters.

Tile semantics (see DESIGN.md): one transaction carries a 16-pixel tile;
each chunk's convolution result is the Gaussian dot product of the
sliding window (our Aetherling stand-in's contract).
"""

from __future__ import annotations

from typing import List, Optional

from ..driver import CompileSession, default_session
from ..generators import GeneratorRegistry
from ..generators.aetherling import AetherlingGenerator, golden_conv
from ..generators.serializer import SerializerGenerator
from ..lilac.elaborate import ElabResult

TILE = 16

SERIALIZER_INTERFACE = """
gen "serializer" comp Ser[#W, #NC, #B, #C, #H]<G:#C*#NC>(
    en_i: interface[G], in[#NC*#B]: [G, G+1] #W
) -> (o[#B]: [G+1, G+#C*(#NC-1)+#H+1] #W)
  where #NC >= 1, #B >= 1, #C >= #H, #H >= 1;
"""

AETHERLING_CONV_INTERFACE = """
gen "aetherling" comp AethConv[#W]<G:#II>(
    val_i: interface[G],
    in[#N]: [G, G+#H] #W
) -> (out[#N]: [G+#L, G+#L+1] #W) with {
    some #H where #H > 0;
    some #N where #N > 0, #N <= 16, 16 % #N == 0;
    some #L where #L > 0;
    some #II where #II >= #H;
};
"""

ARRAY_HELPERS = """
// Delay every element of an array signal by #S cycles.
comp AShift[#W, #Z, #S]<G:1>(in[#Z]: [G, G+1] #W)
    -> (out[#Z]: [G+#S, G+#S+1] #W) where #S >= 0, #Z >= 1 {
  for #e in 0..#Z {
    sh := new Shift[#W, #S]<G>(in{#e});
    out{#e} = sh.out;
  }
}

// Nearest-neighbour 4x downsample with hold (tile stays 16 wide so the
// pyramid stages compose; see DESIGN.md).
comp Down[#W]<G:1>(in[16]: [G, G+1] #W) -> (out[16]: [G, G+1] #W) {
  for #e in 0..16 {
    out{#e} = in{(#e/4)*4};
  }
}

// Nearest-neighbour 2x upsample.
comp Up[#W]<G:1>(in[16]: [G, G+1] #W) -> (out[16]: [G, G+1] #W) {
  for #e in 0..16 {
    out{#e} = in{(#e/2)*2};
  }
}

// Weighted average of two tiles: out = (a + b) / 2.
comp Blend[#W]<G:1>(a[16]: [G, G+1] #W, b[16]: [G, G+1] #W)
    -> (out[16]: [G, G+1] #W) {
  for #e in 0..16 {
    s := new Add[#W]<G>(a{#e}, b{#e});
    h := new ShiftRight[#W, 1]<G>(s.out);
    out{#e} = h.out;
  }
}
"""

BLUR = """
// One blur level: serialize the tile into conv-sized chunks, run the
// Aetherling convolution on each chunk, and realign the chunk results.
// Realignment uses one *hold register* per early element (the Figure 11
// idiom) rather than shift chains — the serialization cost that shrinks
// as the tool provides more parallelism.
comp Blur[#W]<G:#D>(px[16]: [G, G+1] #W)
    -> (out[16]: [G+#L, G+#L+1] #W)
    with { some #D where #D >= 1; some #L where #L >= 1; } {
  C := new AethConv[#W];
  let #N = C::#N;
  let #NC = 16 / #N;
  let #CI = C::#II;
  let #H = C::#H;
  S := new Ser[#W, #NC, #N, #CI, #H];
  s := S<G>(px);
  for #k in 0..#NC {
    c := C<G+1+#CI*#k>(s.o);
    for #j in 0..#N {
      if #k < #NC - 1 {
        h := new RegHold[#W, #CI*(#NC-1-#k)]<G+1+#CI*#k+C::#L>(c.out{#j});
        out{#N*#k+#j} = h.out;
      } else {
        out{#N*#k+#j} = c.out{#j};
      }
    }
  }
  #D := #CI * #NC;
  #L := 1 + #CI*(#NC-1) + C::#L;
}
"""

GBP = """
// The pyramid: blur level 0, downsample, blur level 1, upsample, blend
// with the (delayed) level-0 output, and a final anti-aliasing blur.
comp GBP[#W]<G:#II>(img[16]: [G, G+1] #W)
    -> (out[16]: [G+#L, G+#L+1] #W)
    with { some #II where #II >= 1; some #L where #L >= 1; } {
  Blur0 := new Blur[#W];
  Blur1 := new Blur[#W];
  BlurUp := new Blur[#W];

  b0 := Blur0<G>(img);
  dn := new Down[#W]<G+Blur0::#L>(b0.out);
  b1 := Blur1<G+Blur0::#L>(dn.out);
  up := new Up[#W]<G+Blur0::#L+Blur1::#L>(b1.out);
  // Hold the level-0 tile until level 1 finishes.  When the pyramid is
  // slow enough (at most two tiles in flight across Blur1's latency) a
  // double-buffered DelayBuf suffices; at high throughput we fall back
  // to shift-register balancing.  The choice adapts automatically to
  // whatever timing Aetherling reports — the LA payoff.
  bundle<#e> held[16]: [G+Blur0::#L+Blur1::#L, G+Blur0::#L+Blur1::#L+1] #W;
  if 2 * Blur0::#D >= Blur1::#L + 2 {
    hb := new DelayBuf[#W, 16, Blur1::#L]<G+Blur0::#L>(b0.out);
    for #e in 0..16 { held{#e} = hb.out{#e}; }
  } else {
    ha := new AShift[#W, 16, Blur1::#L]<G+Blur0::#L>(b0.out);
    for #e in 0..16 { held{#e} = ha.out{#e}; }
  }
  blend := new Blend[#W]<G+Blur0::#L+Blur1::#L>(held, up.out);
  b2 := BlurUp<G+Blur0::#L+Blur1::#L>(blend.out);
  for #e in 0..16 {
    out{#e} = b2.out{#e};
  }
  // II is dictated by the slowest blur; L accumulates down the pipeline.
  #II := Max3[Blur0::#D, Blur1::#D, BlurUp::#D]::#Out;
  #L := Blur0::#L + Blur1::#L + BlurUp::#L;
}
"""

GBP_SOURCE = (
    SERIALIZER_INTERFACE + AETHERLING_CONV_INTERFACE + ARRAY_HELPERS + BLUR + GBP
)


def gbp_registry(parallelism: int) -> GeneratorRegistry:
    registry = GeneratorRegistry()
    registry.register(AetherlingGenerator(parallelism))
    registry.register(SerializerGenerator())
    return registry


def elaborate_gbp(
    parallelism: int, width: int = 16, session: Optional[CompileSession] = None
) -> ElabResult:
    """Elaborate the LA pyramid for one Aetherling parallelism setting."""
    session = session or default_session()
    return session.elaborate(
        GBP_SOURCE, "GBP", {"#W": width}, gbp_registry(parallelism)
    ).value


def elaborate_blur(
    parallelism: int, width: int = 16, session: Optional[CompileSession] = None
) -> ElabResult:
    session = session or default_session()
    return session.elaborate(
        GBP_SOURCE, "Blur", {"#W": width}, gbp_registry(parallelism)
    ).value


# ---------------------------------------------------------------------------
# Golden (software) model used by tests and examples.


def golden_blur_chunked(
    tile: List[int],
    parallelism: int,
    width: int,
    window: Optional[List[int]] = None,
) -> List[int]:
    """Chunk-aware software model matching the stand-in's semantics.

    The convolution window persists across transactions in hardware; pass
    ``window`` (mutated in place) to model back-to-back tiles.
    """
    chunk = parallelism
    chunks = TILE // chunk
    state = window if window is not None else [0] * TILE
    out = [0] * TILE
    for index in range(chunks):
        part = tile[index * chunk : (index + 1) * chunk]
        state[:] = part + state[: TILE - chunk]
        value = golden_conv(state, width)
        for lane in range(chunk):
            out[index * chunk + lane] = value
    return out


def golden_down(tile: List[int]) -> List[int]:
    return [tile[(i // 4) * 4] for i in range(TILE)]


def golden_up(tile: List[int]) -> List[int]:
    return [tile[(i // 2) * 2] for i in range(TILE)]


def golden_blend(a: List[int], b: List[int], width: int) -> List[int]:
    mask = (1 << width) - 1
    return [((x + y) & mask) >> 1 for x, y in zip(a, b)]


def golden_gbp(tile: List[int], parallelism: int, width: int) -> List[int]:
    b0 = golden_blur_chunked(tile, parallelism, width)
    b1 = golden_blur_chunked(golden_down(b0), parallelism, width)
    blended = golden_blend(b0, golden_up(b1), width)
    return golden_blur_chunked(blended, parallelism, width)
