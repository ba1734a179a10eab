(** Host-program construction.

    A structural description of a SYCL host program (buffers, command
    groups, USM traffic) lowered to the low-level llvm-dialect host IR a
    C++ compiler would produce — calls against the modeled DPC++ runtime
    ABI ({!Sycl_core.Runtime_abi}). The host raising pass (paper
    Section VII-A) then recovers the structure; round-tripping through
    this low-level form is the flow of Fig. 1's dashed path. *)

open Mlir

(** Sizes: compile-time constants, or values flowing in from outside
    (CLI arguments — the common case in SYCL-Bench). *)
type size =
  | Const of int
  | Arg of int  (** index into the host main arguments *)

type capture =
  | Capture_acc of int * Sycl_core.Sycl_types.access_mode  (** buffer index *)
  | Capture_acc_ranged of
      int * Sycl_core.Sycl_types.access_mode * size list * size list
      (** buffer, mode, range, offset *)
  | Capture_scalar of Attr.t  (** compile-time constant capture *)
  | Capture_scalar_arg of int  (** scalar from a host main argument *)
  | Capture_global of string  (** address of a module-level constant *)
  | Capture_usm of int  (** USM slot *)

type command_group = {
  cg_kernel : string;
  cg_global : size list;
  cg_local : int list option;  (** explicit work-group size, if any *)
  cg_captures : capture list;  (** bind to kernel args 1..n in order *)
}

type stmt =
  | Submit of command_group
  | Repeat of size * stmt list  (** host loop around submissions *)
  | Usm_alloc of int * size * Types.t  (** slot, elements, element type *)
  | Memcpy_h2d of int * int * size  (** usm slot <- host arg *)
  | Memcpy_d2h of int * int * size  (** host arg <- usm slot *)
  | Usm_free of int

type buffer_decl = {
  buf_data_arg : int;  (** host main argument holding the data *)
  buf_dims : size list;
  buf_element : Types.t;
}

type program = {
  host_args : Types.t list;  (** main's argument types *)
  buffers : buffer_decl list;
  globals : (string * Attr.t) list;  (** constant dense globals *)
  body : stmt list;
}

(** Emit the program as a [@main] function (plus globals) into a module;
    returns the main func op. *)
val emit : Core.op -> program -> Core.op
