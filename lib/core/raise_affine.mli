(** Raising of [scf.for] loops with affine bounds and a constant positive
    step to [affine.for]. *)

val pass : Mlir.Pass.t
