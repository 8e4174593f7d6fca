(* Content digest of a FIR program.

   A program's identity is the 64-bit FNV-1a hash of its canonical
   [Serial] encoding, rendered as a 16-char hex string.  Two programs
   share a digest exactly when their canonical encodings are
   byte-identical.  The encoding numbers variables by first occurrence
   instead of writing their process-wide [Var] ids, so the digest is a
   content address up to binder renaming: it depends on the program's
   structure and names, and the same source compiled twice, in one
   process or in two, digests alike.  The recompilation cache
   (Migrate.Codecache) keys compiled code by it, and the process image
   format (Migrate.Wire v6) carries it as integrity metadata that the
   receiver recomputes over the received FIR bytes.

   FNV-1a is not collision-resistant against adversaries; it is NOT a
   trust primitive.  The digest gates nothing security-relevant on its
   own: an untrusted image is still structurally verified and its FIR
   re-typechecked on every cache miss, and a cache hit only reuses code
   that was compiled LOCALLY from a payload that typechecked locally. *)

let of_encoded = Serial.encoded_digest
let of_program p = of_encoded (Serial.encode p)

let hex_length = 16
