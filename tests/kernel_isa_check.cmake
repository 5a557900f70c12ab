# Checks the exact-order contract of the dense kernels in machine code.
#
#   cmake -DOBJDUMP=<objdump> -DLIBRARY=<libdlrover_common.a>
#         [-DX86_64=ON] -P kernel_isa_check.cmake
#
# Fails when any function of LIBRARY holds a fused multiply-add (an FMA
# rounds a * b + c once, where the scalar loops round twice). With X86_64
# set it also requires the AVX2 layer tiles (functions whose symbol names
# contain `Avx2`) to multiply and add 4-wide ymm vectors, and every other
# function to be free of VEX-encoded (AVX) instructions, so the baseline
# build still runs on CPUs without AVX.
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIBRARY}
                OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIBRARY} failed (${rc})")
endif()

string(REGEX MATCH "[^\n]*vfn?m(add|sub)[^\n]*" fma "${asm}")
if(fma)
  message(FATAL_ERROR "fused multiply-add in ${LIBRARY}: ${fma}")
endif()

if(NOT X86_64)
  return()
endif()

# One function per block: its `<symbol>:` line, then one line per
# instruction up to the blank line before the next function.
string(REGEX MATCHALL "<[^>\n]*Avx2[^>\n]*>:\n([^\n]+\n)*" avx2 "${asm}")
if(NOT avx2)
  message(FATAL_ERROR "no AVX2 layer tiles in ${LIBRARY}")
endif()
foreach(op vmulpd vaddpd)
  string(REGEX MATCH "\t${op}[^\n]*%ymm" found "${avx2}")
  if(NOT found)
    message(FATAL_ERROR "the AVX2 layer tiles have no 4-wide ${op}")
  endif()
endforeach()

set(baseline "${asm}")
foreach(block IN LISTS avx2)
  string(REPLACE "${block}" "" baseline "${baseline}")
endforeach()
string(REGEX MATCH "[^\n]*:\tv[a-z][^\n]*" vex "${baseline}")
if(vex)
  message(FATAL_ERROR "AVX instruction outside the AVX2 layer tiles: ${vex}")
endif()
