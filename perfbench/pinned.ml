(* md5 of the canonical answers to Q1-Q20 on the canonical XMark
   document (Generator.default_seed), one array per scaling factor the
   benchmark runs.  Every system, sharded or not, must reproduce these
   bytes; they were recorded from System D and agree with Systems A, B
   and C. *)

let factor_0_1 =
  [| "3d70854f09e17afc4ac088caa07757d9"; "94100c2d9f2b87a9a2bec4cbbeb84001";
     "855bcbec3b415cebf491e959686790a1"; "d41d8cd98f00b204e9800998ecf8427e";
     "38913e1d6a7b94cb0f55994f679f5956"; "211c1e0b83b9c69fa9c4bdede203c1e3";
     "44885837c518b06e3f98b41ab8cedc0f"; "91e1b1add4d7a51612cb4501ab0c7f92";
     "fd8bb78082e30bab30e7230973378116"; "28f4cfd7ef1ce3be1131d7b7d52f124c";
     "e2bb8626b55315d52ece347899901969"; "ad8ae30f70b2c27a7bc04ebfafd9604f";
     "68e9f280f0c1d250b1894a6d427ee11e"; "ee79fb36159c368f4dc1ea508bdc3b93";
     "ec951c940aef2bba1dffc332e6c5761a"; "5e8b5a9d5cebf5a3a49ef011c85ae5b6";
     "3101f279776199582b6533e0dfe18594"; "adb1cc3655a8994a93d3d06483e2ff68";
     "b0d5055f32d0195cc3ed4fee93cb47af"; "929699568fb1343631589ae2a03fac43" |]

let factor_0_01 =
  [| "b7aea4aa8d7a50dea2ae0daa2e5cf33e"; "4a5f4c70ee91602d43547876dca93aff";
     "c8a1a90ab25d60649edc83bdbd337613"; "d41d8cd98f00b204e9800998ecf8427e";
     "67c6a1e7ce56d3d6fa748ab6d9af3fd7"; "e96ed478dab8595a7dbda4cbcbee168f";
     "f9a40a4780f5e1306c46f1c8daecee3b"; "0a464322bf5ecde0c7e887ee807368ba";
     "00a597b6659865bbcbb9ecbaeb4ca32f"; "b8f887f3bb7733e0923b37cd0633bae2";
     "b02be839979bf7bf5565472ad61cff70"; "878659c6e3cbdb4642342ad05d3a3b74";
     "237d2b85953aac48825fab5dbee7012e"; "2928aa6814686a691723edd72a58ad05";
     "938e25850df08f10161c5e391fb6dcc0"; "a1e7a7ed56c5bf3d183c2245b52c761e";
     "b46fd50acfc7bb66e18450ce18b770f9"; "4ac2eb5a6b5f81cf7cb3e2557c52f57d";
     "5bc91b3cc93414d7ee0a4b1f4b91f7da"; "d92ec17ef32c327cad423110f72a8211" |]

let factor_0_001 =
  [| "e2c6cd3df2e392252ffc6de7549b70c7"; "e6c86b916abbdd5b22e89f44bba0634c";
     "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
     "1679091c5a880faf6fb5e6087eb1b2dc"; "b6d767d2f8ed5d21a44b0e5886680cb9";
     "7647966b7343c29048673252e490f736"; "b9eb88b83061871f839f5fda8cb3b5ae";
     "d0e3d33eab4bbf6b206744ac390ecd4f"; "32b18f40ebc6b337849a98fbd3293e29";
     "c128f5022ec404437f2184bbe0e18ac3"; "827a9699bd72c8272c7d19dd1406b50f";
     "14ad8828b49e73e2631100a9f5bf7dbb"; "919eccd98cf0e5e2e5402184a11bfd6a";
     "341ab6a85a39f92bd87f5f672360b6e1"; "a651af0fbbdeeab6c4e2be1f77e45dcf";
     "067265ad6ab577990090069fd24bb986"; "ee21610a1c58cf20047c3618cba3e398";
     "0f68c56db1654cdcc9682ae57673936c"; "89cb6f9d1799276e25cff2f25983d6ee" |]

(* The pinned digest of query [q] at [factor]. *)
let digest ~factor q =
  let table =
    if factor = 0.1 then factor_0_1
    else if factor = 0.01 then factor_0_01
    else if factor = 0.001 then factor_0_001
    else invalid_arg (Printf.sprintf "no pinned digests at factor %g" factor)
  in
  table.(q - 1)
