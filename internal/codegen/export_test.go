package codegen

// FramePtr is the frame-pointer pseudo register, for the MIR executor in
// the external tests.
const FramePtr = framePtr
